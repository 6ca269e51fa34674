package gfs

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"strconv"
	"testing"
)

// This file checks the hand-written exports against the encoders they
// replaced, kept here as oracles: encoding/json over reportLine, one
// Write per line; encoding/csv over the old string rows; fmt.Fprintf
// per Prometheus sample.

// oracleJSONL is the old Report.writeJSONL.
func oracleJSONL(w io.Writer, r *Report, member string) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	put := func(line reportLine) error {
		line.Member = member
		return enc.Encode(line)
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
			if err := put(reportLine{Record: "quota", Quota: &r.Quota.Samples[i]}); err != nil {
				return err
			}
		}
	}
	for i := range r.Timeline {
		if err := put(reportLine{Record: "alloc", Alloc: &r.Timeline[i]}); err != nil {
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

// oracleFederationJSONL is the old FederationReport.WriteJSONL.
func oracleFederationJSONL(w io.Writer, f *FederationReport) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	err := enc.Encode(reportLine{Record: "federation", Federation: &federationLine{
		Migrations: f.Migrations, Saturations: f.Saturations,
	}})
	if err != nil {
		return err
	}
	if f.Aggregate != nil {
		if err := oracleJSONL(w, f.Aggregate, ""); err != nil {
			return err
		}
	}
	for _, m := range f.Members {
		if err := oracleJSONL(w, m.Report, m.Name); err != nil {
			return err
		}
	}
	return nil
}

// oracleCSV writes the old string rows through encoding/csv.
func oracleCSV(w io.Writer, header []string, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, row := range rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// oracleFtoa is the old ftoa.
func oracleFtoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// oracleTimelineCSV is the old Report.WriteTimelineCSV.
func oracleTimelineCSV(w io.Writer, r *Report) error {
	var rows [][]string
	for _, p := range r.Timeline {
		rows = append(rows, []string{
			strconv.FormatInt(int64(p.At), 10), p.Member,
			ftoa(p.Used), ftoa(p.Capacity), ftoa(p.Rate),
		})
	}
	return oracleCSV(w, []string{"at", "member", "used", "capacity", "rate"}, rows)
}

// oracleQuotaCSV is the old Report.WriteQuotaCSV.
func oracleQuotaCSV(w io.Writer, r *Report) error {
	var rows [][]string
	if r.Quota != nil {
		for _, s := range r.Quota.Samples {
			rows = append(rows, []string{
				strconv.FormatInt(int64(s.At), 10), s.Member,
				s.Quota.String(), oracleFtoa(s.SpotUsed), oracleFtoa(s.Eta),
			})
		}
	}
	return oracleCSV(w, []string{"at", "member", "quota", "spot_used", "eta"}, rows)
}

// oracleProm is the old writeProm: one fmt.Fprintf per header and
// per sample, straight to w.
func oracleProm(w io.Writer, samples []promSample) error {
	byName := make(map[string][]promSample)
	for _, s := range samples {
		byName[s.name] = append(byName[s.name], s)
	}
	for _, fam := range promFamilies {
		ss := byName[fam.name]
		if len(ss) == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", fam.name, fam.help, fam.name); err != nil {
			return err
		}
		for _, s := range ss {
			if _, err := fmt.Fprintf(w, "%s%s %s\n", s.name, s.labels, oracleFtoa(s.value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// oracleFederationProm is the old FederationReport.WritePrometheus.
func oracleFederationProm(w io.Writer, f *FederationReport) error {
	samples := []promSample{
		{name: "gfs_federation_migrations_total", value: float64(f.Migrations)},
		{name: "gfs_federation_saturations_total", value: float64(f.Saturations)},
	}
	samples = append(samples, f.Aggregate.samples("")...)
	for _, m := range f.Members {
		samples = append(samples, m.Report.samples(m.Name)...)
	}
	return oracleProm(w, samples)
}

// errFull is limitWriter's error once its room is spent.
var errFull = errors.New("writer full")

// limitWriter accepts n bytes, then writes what fits of each call and
// fails with errFull.
type limitWriter struct {
	buf bytes.Buffer
	n   int
}

func (l *limitWriter) Write(p []byte) (int, error) {
	if len(p) > l.n {
		l.buf.Write(p[:l.n])
		k := l.n
		l.n = 0
		return k, errFull
	}
	l.buf.Write(p)
	l.n -= len(p)
	return len(p), nil
}

// fuzzReport builds a federation report whose aggregate and one member
// share a report of n quota ticks and n timeline points. Each float is
// drawn from x, y, z and the values encoding/json and strconv treat
// specially; strings are tag and member, which also name the org, the
// priced pool, a custom section and the federation member.
func fuzzReport(seed uint64, n int, x, y, z float64, tag, member string) *FederationReport {
	rng := rand.New(rand.NewPCG(seed, 0))
	floats := []float64{x, y, z, 0, math.Copysign(0, -1), 1e-7, 1e-6, 1e20, 1e21, 0.1, 2.5, -3, 2296,
		123456.789, 999999, 1e6, -1e6, 1 << 53, 1<<53 + 2, -(1 << 53), 5e-324, math.MaxFloat64}
	quotas := append([]float64{math.Inf(1), math.Inf(-1), math.NaN()}, floats...)
	pick := func(vs []float64) float64 { return vs[rng.IntN(len(vs))] }
	strs := []string{"", tag, member}
	r := &Report{
		Scheduler: tag,
		End:       Time(rng.Int64N(1 << 40)),
		Summary: &Summary{Scheduler: tag, AllocationRate: 0.75,
			FinalQuota: QuotaValue(pick(quotas))},
		Orgs:  []OrgMetrics{{Org: tag, GPUSeconds: 3600}, {Org: member}},
		Quota: &QuotaTrajectory{FinalEta: 1},
		Cost: &CostLedger{Pools: []PoolCost{{Model: member, GPUs: 8, Rate: 0.5}},
			MonthlyBenefitUSD: 12.5, Margin: 0.3, HoursPerMonth: 730},
		Sections: []CustomSection{{Name: member, Value: tag}},
	}
	for i := range n {
		at := Time(int64(i)*300 - rng.Int64N(600))
		r.Quota.Samples = append(r.Quota.Samples, QuotaSample{
			At: at, Member: strs[rng.IntN(3)], Quota: QuotaValue(pick(quotas)),
			SpotUsed: pick(floats), Eta: pick(floats),
		})
		r.Timeline = append(r.Timeline, AllocPoint{
			At: at, Member: strs[rng.IntN(3)],
			Used: pick(floats), Capacity: pick(floats), Rate: pick(floats),
		})
	}
	return &FederationReport{Aggregate: r, Members: []MemberReport{{Name: member, Report: r}},
		Migrations: 2, Saturations: 1}
}

// FuzzReportExport is the differential witness of the hand-written
// exports: for every format, the bytes and error of the export equal
// the oracle's, both into a buffer and into a writer that fails after a
// fuzzed number of bytes.
func FuzzReportExport(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	f.Add(uint64(1), uint16(5), 0.5, 1.0, 2.0, "a,b", "q\"uote", uint32(0))
	f.Add(uint64(2), uint16(390), 3.25, -1e-9, 7e22, " lead", "<b>&amp;</b>", uint32(40000))
	f.Add(uint64(3), uint16(3), 1e-7, 1e21, 0.3, "line\u2028sep", "bad\xff\xfe", uint32(100))
	f.Add(uint64(4), uint16(2), 1.0, 2.0, 3.0, "cr\rlf\n", `\.`, uint32(7))
	f.Add(uint64(5), uint16(40), nan, 1.0, 2.0, "", "west", uint32(1<<20))
	f.Add(uint64(6), uint16(40), 1.0, inf, -inf, "\tTab", "zone-0", uint32(5000))
	f.Add(uint64(7), uint16(8), math.Copysign(0, -1), -0.0, 0.0, "\x00ctl", "\u00a0nbsp", uint32(300))
	f.Fuzz(func(t *testing.T, seed uint64, points uint16, x, y, z float64, tag, member string, limit uint32) {
		fr := fuzzReport(seed, int(points%400), x, y, z, tag, member)
		r := fr.Aggregate
		for _, ex := range []struct {
			name      string
			got, want func(io.Writer) error
		}{
			{"jsonl", r.WriteJSONL, func(w io.Writer) error { return oracleJSONL(w, r, "") }},
			{"federation jsonl", fr.WriteJSONL, func(w io.Writer) error { return oracleFederationJSONL(w, fr) }},
			{"timeline csv", r.WriteTimelineCSV, func(w io.Writer) error { return oracleTimelineCSV(w, r) }},
			{"quota csv", r.WriteQuotaCSV, func(w io.Writer) error { return oracleQuotaCSV(w, r) }},
			{"prom", r.WritePrometheus, func(w io.Writer) error { return oracleProm(w, r.samples("")) }},
			{"federation prom", fr.WritePrometheus, func(w io.Writer) error { return oracleFederationProm(w, fr) }},
		} {
			var want, got bytes.Buffer
			wantErr, gotErr := ex.want(&want), ex.got(&got)
			sameOutcome(t, ex.name, want.Bytes(), got.Bytes(), wantErr, gotErr)
			room := int(limit) % (want.Len() + 2)
			wantW, gotW := &limitWriter{n: room}, &limitWriter{n: room}
			wantErr, gotErr = ex.want(wantW), ex.got(gotW)
			sameOutcome(t, fmt.Sprintf("%s into %d bytes", ex.name, room), wantW.buf.Bytes(), gotW.buf.Bytes(), wantErr, gotErr)
		}
	})
}

// sameOutcome fails t unless an export wrote the oracle's bytes and
// returned an error of the same type and text.
func sameOutcome(t *testing.T, name string, want, got []byte, wantErr, gotErr error) {
	t.Helper()
	if fmt.Sprintf("%T %v", wantErr, wantErr) != fmt.Sprintf("%T %v", gotErr, gotErr) {
		t.Fatalf("%s: error %T %v, want %T %v", name, gotErr, gotErr, wantErr, wantErr)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo := max(i-80, 0)
		t.Fatalf("%s: bytes differ at %d of %d (want %d)\n got: %q\nwant: %q", name, i, len(got), len(want),
			got[lo:min(i+80, len(got))], want[lo:min(i+80, len(want))])
	}
}

// TestExportAllocatesPerExport: the per-tick exports of a 10,000-point
// report allocate a bounded number of times, whatever the point count,
// since every tick line is appended into one pooled scratch and
// buffer.
func TestExportAllocatesPerExport(t *testing.T) {
	const points = 10000
	r := &Report{Scheduler: "gfs", Quota: &QuotaTrajectory{}}
	for i := range points {
		used := float64(i%2000) + 0.5
		r.Quota.Samples = append(r.Quota.Samples, QuotaSample{At: Time(i * 300),
			Quota: QuotaValue(float64(i%300) + 0.25), SpotUsed: used / 3, Eta: 0.9})
		r.Timeline = append(r.Timeline, AllocPoint{At: Time(i * 60), Member: "west",
			Used: used, Capacity: 2296, Rate: used / 2296})
	}
	for _, ex := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{"jsonl", r.WriteJSONL},
		{"timeline csv", r.WriteTimelineCSV},
		{"quota csv", r.WriteQuotaCSV},
	} {
		allocs := testing.AllocsPerRun(20, func() {
			if err := ex.write(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %d points, %v allocations", ex.name, points, allocs)
		if allocs > 10 {
			t.Fatalf("%s: exporting %d points allocates %v times, want <= 10", ex.name, points, allocs)
		}
	}
}

// TestExportAfterFailedWrite: an export whose destination fails leaves
// nothing behind for the next one. The failing chunk write lands inside
// encoding/json's Encode (200 org records fill the first 32 KB), whose
// Encoder keeps that error for every later Encode.
func TestExportAfterFailedWrite(t *testing.T) {
	r := &Report{Scheduler: "gfs"}
	for i := range 200 {
		r.Orgs = append(r.Orgs, OrgMetrics{Org: fmt.Sprintf("org-%03d", i)})
	}
	var want bytes.Buffer
	if err := oracleJSONL(&want, r, ""); err != nil {
		t.Fatal(err)
	}
	for range 3 {
		if err := r.WriteJSONL(&limitWriter{}); !errors.Is(err, errFull) {
			t.Fatalf("export into a full writer: %v, want %v", err, errFull)
		}
		var got bytes.Buffer
		if err := r.WriteJSONL(&got); err != nil || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("export after a failed one: %v, %d bytes, want %d", err, got.Len(), want.Len())
		}
	}
}
