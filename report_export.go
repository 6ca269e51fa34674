package gfs

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"io"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

	"github.com/sjtucitlab/gfs/internal/jsonenc"
)

// This file implements the Report export formats: JSONL (one
// self-describing record per line, streamed), CSV (flat tables per
// section) and a Prometheus-style text snapshot. All exports are
// byte-deterministic for deterministic runs — the property the CI
// determinism gate asserts across RunBatch worker counts.

// reportLine is one JSONL record: Record names the payload, Member
// tags federation exports, and exactly one payload field is set.
type reportLine struct {
	// Record is the line's payload kind: report, summary, org,
	// evictions, quota, alloc, cost, section or federation.
	Record string `json:"record"`
	// Member tags the owning federation member ("" = aggregate or
	// single-engine).
	Member string `json:"member,omitempty"`
	// Scheduler and End annotate the leading "report" record.
	Scheduler string `json:"scheduler,omitempty"`
	End       Time   `json:"end,omitempty"`
	// Payload fields, one per record kind.
	Summary    *Summary           `json:"summary,omitempty"`
	Org        *OrgMetrics        `json:"org,omitempty"`
	Evictions  *EvictionBreakdown `json:"evictions,omitempty"`
	Quota      *QuotaSample       `json:"quota,omitempty"`
	Alloc      *AllocPoint        `json:"alloc,omitempty"`
	Cost       *CostLedger        `json:"cost,omitempty"`
	Section    *CustomSection     `json:"section,omitempty"`
	Federation *federationLine    `json:"federation,omitempty"`
}

// federationLine is the payload of a federation JSONL header record.
type federationLine struct {
	Migrations  int `json:"migrations"`
	Saturations int `json:"saturations"`
}

// exportChunk is the size of the buffer every export writes through:
// the destination sees one Write per exportChunk bytes, not one per
// line.
const exportChunk = 32 << 10

// exporter is one export's output buffer, the encoding/json encoder
// over it for the O(orgs) records, and the scratch a hand-appended
// line is built in.
type exporter struct {
	*bufio.Writer
	enc  *json.Encoder
	line []byte
}

// exporters recycles exporters across exports, so a daemon serving
// many reports does not allocate a chunk buffer for each.
var exporters = sync.Pool{New: func() any {
	e := &exporter{Writer: bufio.NewWriterSize(nil, exportChunk)}
	e.enc = json.NewEncoder(e.Writer)
	e.enc.SetEscapeHTML(false)
	return e
}}

// export runs write against a pooled exporter over w, then flushes it.
// The flush follows a failed line too, so w receives every line before
// it. A failed write to w wins over a line's own error: writing line
// by line, the export would have failed there first. An exporter goes
// back to the pool only after a clean export: a json.Encoder whose
// write failed returns that error from every later Encode.
func export(w io.Writer, write func(*exporter) error) error {
	e := exporters.Get().(*exporter)
	e.Reset(w)
	err := write(e)
	if ferr := e.Flush(); ferr != nil {
		err = ferr
	}
	if err == nil {
		e.Reset(nil)
		exporters.Put(e)
	}
	return err
}

// writeLine writes the line built in e.line.
func (e *exporter) writeLine() error {
	_, err := e.Write(e.line)
	return err
}

// WriteJSONL streams the report as JSON Lines: a leading "report"
// record, then one record per section element (orgs, quota samples
// and timeline points each get a line of their own), so consumers
// can process arbitrarily long trajectories without buffering the
// whole report. Every line is what encoding/json, HTML escaping off,
// writes for its reportLine; the per-tick "quota" and "alloc" records
// are appended by hand, the rest go through encoding/json.
func (r *Report) WriteJSONL(w io.Writer) error {
	return export(w, func(e *exporter) error { return r.writeJSONL(e, "") })
}

func (r *Report) writeJSONL(e *exporter, member string) error {
	put := func(line reportLine) error {
		line.Member = member
		return e.enc.Encode(line)
	}
	if err := put(reportLine{Record: "report", Scheduler: r.Scheduler, End: r.End}); err != nil {
		return err
	}
	if r.Summary != nil {
		if err := put(reportLine{Record: "summary", Summary: r.Summary}); err != nil {
			return err
		}
	}
	for i := range r.Orgs {
		if err := put(reportLine{Record: "org", Org: &r.Orgs[i]}); err != nil {
			return err
		}
	}
	if r.Evictions != nil {
		if err := put(reportLine{Record: "evictions", Evictions: r.Evictions}); err != nil {
			return err
		}
	}
	if r.Quota != nil {
		for i := range r.Quota.Samples {
			if err := e.quotaLine(member, &r.Quota.Samples[i]); err != nil {
				return err
			}
		}
	}
	for i := range r.Timeline {
		if err := e.allocLine(member, &r.Timeline[i]); err != nil {
			return err
		}
	}
	if r.Cost != nil {
		if err := put(reportLine{Record: "cost", Cost: r.Cost}); err != nil {
			return err
		}
	}
	for i := range r.Sections {
		if err := put(reportLine{Record: "section", Section: &r.Sections[i]}); err != nil {
			return err
		}
	}
	return nil
}

// appendLineHead opens a per-tick JSONL record as encoding/json writes
// a reportLine: the record kind, the member tag when set, then the
// payload, which is keyed by the kind, up to its leading "at" key.
func appendLineHead(dst []byte, record, member string) []byte {
	dst = append(dst, `{"record":"`...)
	dst = append(dst, record...)
	dst = append(dst, '"')
	dst = appendMemberField(dst, member)
	dst = append(dst, `,"`...)
	dst = append(dst, record...)
	return append(dst, `":{"at":`...)
}

// appendMemberField appends a "member" field unless it is empty
// (omitempty).
func appendMemberField(dst []byte, member string) []byte {
	if member == "" {
		return dst
	}
	dst = append(dst, `,"member":`...)
	return jsonenc.AppendString(dst, member, false)
}

// quotaLine writes the "quota" record of s. A sample encoding/json
// refuses (a NaN or infinite usage or eta) goes to encoding/json, which
// returns the error it always did and writes nothing.
func (e *exporter) quotaLine(member string, s *QuotaSample) error {
	if !jsonenc.Finite(s.SpotUsed) || !jsonenc.Finite(s.Eta) {
		return e.enc.Encode(reportLine{Record: "quota", Member: member, Quota: s})
	}
	b := appendLineHead(e.line[:0], "quota", member)
	b = strconv.AppendInt(b, int64(s.At), 10)
	b = appendMemberField(b, s.Member)
	b = append(b, `,"quota":`...)
	b = s.Quota.appendJSON(b)
	b = append(b, `,"spot_used":`...)
	b = jsonenc.AppendFloat(b, s.SpotUsed)
	if s.Eta != 0 {
		b = append(b, `,"eta":`...)
		b = jsonenc.AppendFloat(b, s.Eta)
	}
	e.line = append(b, "}}\n"...)
	return e.writeLine()
}

// allocLine writes the "alloc" record of p; like quotaLine, a point
// with a NaN or infinite value goes to encoding/json for its error.
func (e *exporter) allocLine(member string, p *AllocPoint) error {
	if !jsonenc.Finite(p.Used) || !jsonenc.Finite(p.Capacity) || !jsonenc.Finite(p.Rate) {
		return e.enc.Encode(reportLine{Record: "alloc", Member: member, Alloc: p})
	}
	b := appendLineHead(e.line[:0], "alloc", member)
	b = strconv.AppendInt(b, int64(p.At), 10)
	b = appendMemberField(b, p.Member)
	b = append(b, `,"used":`...)
	b = jsonenc.AppendFloat(b, p.Used)
	b = append(b, `,"capacity":`...)
	b = jsonenc.AppendFloat(b, p.Capacity)
	b = append(b, `,"rate":`...)
	b = jsonenc.AppendFloat(b, p.Rate)
	e.line = append(b, "}}\n"...)
	return e.writeLine()
}

// WriteJSONL streams the federation report: a "federation" header
// record, the aggregate report's records untagged, then each
// member's records tagged with its name.
func (f *FederationReport) WriteJSONL(w io.Writer) error {
	return export(w, func(e *exporter) error {
		err := e.enc.Encode(reportLine{Record: "federation", Federation: &federationLine{
			Migrations: f.Migrations, Saturations: f.Saturations,
		}})
		if err != nil {
			return err
		}
		if f.Aggregate != nil {
			if err := f.Aggregate.writeJSONL(e, ""); err != nil {
				return err
			}
		}
		for _, m := range f.Members {
			if err := m.Report.writeJSONL(e, m.Name); err != nil {
				return err
			}
		}
		return nil
	})
}

// ftoa renders a float for CSV and Prometheus output, shortest
// round-trip form (Prometheus accepts the +Inf it writes).
func ftoa(f float64) string { return string(appendFloat(make([]byte, 0, 24), f)) }

// appendFloat appends ftoa(f). A whole number below 1e6 in magnitude
// is its integer's digits (%g's shortest form switches to an exponent
// from 1e6 up); zero goes the long way, which keeps the sign of -0.
func appendFloat(dst []byte, f float64) []byte {
	if f != 0 && f > -1e6 && f < 1e6 {
		if i := int64(f); float64(i) == f {
			return strconv.AppendInt(dst, i, 10)
		}
	}
	return strconv.AppendFloat(dst, f, 'g', -1, 64)
}

// WriteCSV writes the per-organization metrics table — one row per
// organization and task class, led by two "*" rows carrying the
// cluster-wide summary when present.
func (r *Report) WriteCSV(w io.Writer) error {
	return writeOrgCSV(w, false, []MemberReport{{Report: r}})
}

// writeOrgCSV writes the per-organization table of each report in
// order, skipping nil reports: a report's two "*" summary rows when it
// has a summary, then one row per organization and task class. With
// member set, a leading member column holds each report's name.
func writeOrgCSV(w io.Writer, member bool, reports []MemberReport) error {
	return export(w, func(e *exporter) error { return writeOrgRows(e, member, reports) })
}

// writeOrgRows writes writeOrgCSV's table through e. csv.NewWriter
// writes straight into e's buffer, which is larger than its own.
func writeOrgRows(e *exporter, member bool, reports []MemberReport) error {
	cw := csv.NewWriter(e.Writer)
	header := []string{
		"member", "org", "class", "count", "finished", "unfinished",
		"jct_mean_s", "jct_p50_s", "jct_p95_s", "jct_p99_s",
		"queue_mean_s", "queue_p50_s", "queue_p95_s", "queue_p99_s", "queue_max_s",
		"evictions", "runs", "eviction_rate", "gpu_seconds",
	}
	if !member {
		header = header[1:]
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, 0, len(header))
	for _, mr := range reports {
		r := mr.Report
		if r == nil {
			continue
		}
		row := func(org, class string, m ClassMetrics) error {
			rec = rec[:0]
			if member {
				rec = append(rec, mr.Name)
			}
			return cw.Write(append(rec, org, class,
				strconv.Itoa(m.Count), strconv.Itoa(m.Finished), strconv.Itoa(m.Unfinished),
				ftoa(m.JCTMean), ftoa(m.JCTP50), ftoa(m.JCTP95), ftoa(m.JCTP99),
				ftoa(m.QueueMean), ftoa(m.QueueP50), ftoa(m.QueueP95), ftoa(m.QueueP99), ftoa(m.QueueMax),
				strconv.Itoa(m.Evictions), strconv.Itoa(m.Runs), ftoa(m.EvictionRate), ftoa(m.GPUSeconds),
			))
		}
		if s := r.Summary; s != nil {
			if err := row("*", "hp", s.HP); err != nil {
				return err
			}
			if err := row("*", "spot", s.Spot); err != nil {
				return err
			}
		}
		for _, o := range r.Orgs {
			if err := row(o.Org, "hp", o.HP); err != nil {
				return err
			}
			if err := row(o.Org, "spot", o.Spot); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// appendCSVField appends s as a csv.Writer with the default comma and
// LF line ends writes a field: quoted, with each '"' doubled, when it
// holds a comma, a quote, CR or LF, starts with a space character, or
// is `\.`; verbatim otherwise. The numbers beside it never need quotes.
func appendCSVField(dst []byte, s string) []byte {
	if r, _ := utf8.DecodeRuneInString(s); s != `\.` && !strings.ContainsAny(s, ",\"\r\n") && !unicode.IsSpace(r) {
		return append(dst, s...)
	}
	dst = append(dst, '"')
	for {
		i := strings.IndexByte(s, '"')
		if i < 0 {
			break
		}
		dst = append(dst, s[:i+1]...)
		dst = append(dst, '"')
		s = s[i+1:]
	}
	dst = append(dst, s...)
	return append(dst, '"')
}

// promSample is one metric sample of the Prometheus snapshot.
type promSample struct {
	name   string
	labels string // rendered {k="v",...} or ""
	value  float64
}

// promFamilies fixes the family order and help strings of the
// snapshot. Families absent from a report are skipped.
var promFamilies = []struct{ name, help string }{
	{"gfs_run_end_seconds", "Simulated time of the run's last event."},
	{"gfs_tasks_total", "Tasks that arrived, by class."},
	{"gfs_tasks_finished_total", "Tasks that completed, by class."},
	{"gfs_jct_seconds", "Job completion time percentiles, by class."},
	{"gfs_jct_mean_seconds", "Mean job completion time, by class."},
	{"gfs_queue_seconds", "Queue-wait percentiles, by class."},
	{"gfs_queue_max_seconds", "Maximum queue wait, by class."},
	{"gfs_evictions_total", "Eviction events, by class and cause."},
	{"gfs_eviction_rate", "Evictions per run attempt, by class."},
	{"gfs_allocation_rate", "Time-averaged GPU allocation rate."},
	{"gfs_wasted_gpu_seconds", "GPU-seconds lost to evictions (Eq. 17)."},
	{"gfs_spot_quota_gpus", "Final spot quota (+Inf when unlimited)."},
	{"gfs_quota_eta", "Final safety coefficient of the quota feedback loop."},
	{"gfs_quota_tracking_error_gpus", "Quota-vs-usage tracking error, mean and max."},
	{"gfs_org_tasks_total", "Tasks per organization and class."},
	{"gfs_org_gpu_seconds", "GPU time held per organization."},
	{"gfs_org_evictions_total", "Evictions per organization."},
	{"gfs_pool_allocation_rate", "Achieved allocation rate per GPU pool."},
	{"gfs_pool_monthly_benefit_usd", "Priced monthly benefit per GPU pool."},
	{"gfs_monthly_benefit_usd", "Total priced monthly benefit."},
	{"gfs_federation_migrations_total", "Delivered spillover migrations."},
	{"gfs_federation_saturations_total", "ClusterSaturated occurrences."},
}

// promEscaper escapes label values per the Prometheus text
// exposition format (backslash, double quote, newline). Org and
// model names come from ingested traces, so they are arbitrary.
var promEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// promLabels renders label pairs in the given order, escaping
// values.
func promLabels(pairs ...string) string {
	if len(pairs) == 0 {
		return ""
	}
	s := "{"
	for i := 0; i+1 < len(pairs); i += 2 {
		if pairs[i+1] == "" {
			continue
		}
		if len(s) > 1 {
			s += ","
		}
		s += pairs[i] + `="` + promEscaper.Replace(pairs[i+1]) + `"`
	}
	if s == "{" {
		return ""
	}
	return s + "}"
}

// samples flattens the report into metric samples, tagging each with
// the member label when set.
func (r *Report) samples(member string) []promSample {
	return r.labeledSamples("member", member)
}

// labeledSamples flattens the report into metric samples, prepending
// the given label pair to every sample (skipped when value is empty,
// per promLabels).
func (r *Report) labeledSamples(labelKey, labelValue string) []promSample {
	var out []promSample
	add := func(name string, value float64, labels ...string) {
		labels = append([]string{labelKey, labelValue}, labels...)
		out = append(out, promSample{name: name, labels: promLabels(labels...), value: value})
	}
	add("gfs_run_end_seconds", float64(r.End))
	if s := r.Summary; s != nil {
		for _, c := range []struct {
			class string
			m     ClassMetrics
		}{{"hp", s.HP}, {"spot", s.Spot}} {
			add("gfs_tasks_total", float64(c.m.Count), "class", c.class)
			add("gfs_tasks_finished_total", float64(c.m.Finished), "class", c.class)
			add("gfs_jct_seconds", c.m.JCTP50, "class", c.class, "quantile", "0.5")
			add("gfs_jct_seconds", c.m.JCTP95, "class", c.class, "quantile", "0.95")
			add("gfs_jct_seconds", c.m.JCTP99, "class", c.class, "quantile", "0.99")
			add("gfs_jct_mean_seconds", c.m.JCTMean, "class", c.class)
			add("gfs_queue_seconds", c.m.QueueP50, "class", c.class, "quantile", "0.5")
			add("gfs_queue_seconds", c.m.QueueP95, "class", c.class, "quantile", "0.95")
			add("gfs_queue_seconds", c.m.QueueP99, "class", c.class, "quantile", "0.99")
			add("gfs_queue_max_seconds", c.m.QueueMax, "class", c.class)
			add("gfs_eviction_rate", c.m.EvictionRate, "class", c.class)
		}
		add("gfs_allocation_rate", s.AllocationRate)
		add("gfs_wasted_gpu_seconds", s.WastedGPUSeconds)
		add("gfs_spot_quota_gpus", float64(s.FinalQuota))
	}
	if e := r.Evictions; e != nil {
		for _, c := range []struct {
			class string
			m     EvictionCounts
		}{{"hp", e.HP}, {"spot", e.Spot}} {
			add("gfs_evictions_total", float64(c.m.Preempted), "class", c.class, "cause", "preempted")
			add("gfs_evictions_total", float64(c.m.NodeFailure), "class", c.class, "cause", "node-failure")
			add("gfs_evictions_total", float64(c.m.Reclaimed), "class", c.class, "cause", "reclaimed")
			add("gfs_evictions_total", float64(c.m.Drained), "class", c.class, "cause", "drained")
		}
	}
	if q := r.Quota; q != nil {
		add("gfs_quota_eta", q.FinalEta)
		add("gfs_quota_tracking_error_gpus", q.MeanAbsError, "stat", "mean")
		add("gfs_quota_tracking_error_gpus", q.MaxAbsError, "stat", "max")
	}
	for _, o := range r.Orgs {
		org := o.Org
		if org == "" {
			org = "(none)"
		}
		add("gfs_org_tasks_total", float64(o.HP.Count), "org", org, "class", "hp")
		add("gfs_org_tasks_total", float64(o.Spot.Count), "org", org, "class", "spot")
		add("gfs_org_gpu_seconds", o.GPUSeconds, "org", org)
		add("gfs_org_evictions_total", float64(o.Evictions.total()), "org", org)
	}
	if c := r.Cost; c != nil {
		for _, p := range c.Pools {
			add("gfs_pool_allocation_rate", p.Rate, "model", p.Model)
			add("gfs_pool_monthly_benefit_usd", p.MonthlyBenefitUSD, "model", p.Model)
		}
		add("gfs_monthly_benefit_usd", c.MonthlyBenefitUSD)
	}
	return out
}

// writeProm renders samples grouped by family in the fixed family
// order, one HELP/TYPE header per family.
func writeProm(w io.Writer, samples []promSample) error {
	byName := make(map[string][]promSample)
	for _, s := range samples {
		byName[s.name] = append(byName[s.name], s)
	}
	return export(w, func(e *exporter) error {
		for _, fam := range promFamilies {
			ss := byName[fam.name]
			if len(ss) == 0 {
				continue
			}
			b := append(e.line[:0], "# HELP "...)
			b = append(b, fam.name...)
			b = append(b, ' ')
			b = append(b, fam.help...)
			b = append(b, "\n# TYPE "...)
			b = append(b, fam.name...)
			b = append(b, " gauge\n"...)
			for _, s := range ss {
				b = append(b, s.name...)
				b = append(b, s.labels...)
				b = append(b, ' ')
				b = appendFloat(b, s.value)
				b = append(b, '\n')
			}
			e.line = b
			if err := e.writeLine(); err != nil {
				return err
			}
		}
		return nil
	})
}

// WritePrometheus renders the report as a Prometheus text-exposition
// snapshot: gauges for every section, grouped by metric family.
func (r *Report) WritePrometheus(w io.Writer) error {
	return writeProm(w, r.samples(""))
}

// LabeledReport pairs a report with the label value identifying its
// samples in a merged Prometheus snapshot (see WritePrometheusLabeled).
// A federation run contributes its Aggregate report.
type LabeledReport struct {
	// Label is the label value tagging this report's samples.
	Label string
	// Report is the report to flatten; nil entries are skipped.
	Report *Report
}

// WritePrometheusLabeled renders several reports as ONE Prometheus
// text snapshot: samples from every report are merged into shared
// metric families (one HELP/TYPE header each), with labelKey
// distinguishing their origin. Concatenating per-report snapshots
// would repeat family headers, which the text exposition format
// forbids — this is the export a multi-session service needs for a
// combined /metrics page.
func WritePrometheusLabeled(w io.Writer, labelKey string, reports []LabeledReport) error {
	var samples []promSample
	for _, lr := range reports {
		if lr.Report == nil {
			continue
		}
		samples = append(samples, lr.Report.labeledSamples(labelKey, lr.Label)...)
	}
	return writeProm(w, samples)
}

// WritePrometheus renders the federation report as one snapshot: the
// aggregate unlabeled, each member's series under a member label,
// plus the federation counters.
func (f *FederationReport) WritePrometheus(w io.Writer) error {
	var samples []promSample
	samples = append(samples,
		promSample{name: "gfs_federation_migrations_total", value: float64(f.Migrations)},
		promSample{name: "gfs_federation_saturations_total", value: float64(f.Saturations)},
	)
	if f.Aggregate != nil {
		samples = append(samples, f.Aggregate.samples("")...)
	}
	for _, m := range f.Members {
		samples = append(samples, m.Report.samples(m.Name)...)
	}
	return writeProm(w, samples)
}

// WriteCSV writes the federation's per-organization tables: the
// aggregate's rows tagged member "", then each member's rows tagged
// with its name. The header gains a leading member column.
func (f *FederationReport) WriteCSV(w io.Writer) error {
	return writeOrgCSV(w, true, append([]MemberReport{{Report: f.Aggregate}}, f.Members...))
}
