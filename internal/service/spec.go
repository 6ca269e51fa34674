package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/url"
	"strconv"

	gfs "github.com/sjtucitlab/gfs"
	"github.com/sjtucitlab/gfs/internal/runspec"
)

// inlineSource turns the spec's inline task records into a replayable
// trace source: the records are framed as JSONL, decoded by the same
// codec trace files use, and sorted by submission time (inline JSON
// arrays have no natural order, unlike trace files, which must
// already be sorted).
func inlineSource(tasks []json.RawMessage) gfs.TraceSource {
	var buf bytes.Buffer
	for _, raw := range tasks {
		buf.Write(bytes.TrimSpace(raw))
		buf.WriteByte('\n')
	}
	src, err := gfs.OpenTraceReader(&buf, gfs.TraceFormatJSONL)
	if err != nil {
		// OpenTraceReader on an explicit format only fails on
		// unreadable input; a bytes.Buffer cannot fail.
		panic(err)
	}
	return gfs.SortTraceBySubmit(src)
}

// specFromQuery decodes a run spec from URL query parameters — the
// spec channel for trace-upload submissions, whose body is the trace
// itself.
func specFromQuery(q url.Values) (runspec.Spec, error) {
	var sp runspec.Spec
	sp.Scheduler = q.Get("scheduler")
	sp.Scenario = q.Get("scenario")
	sp.Route = q.Get("route")
	sp.Federation = q.Get("federation") == "true" || q.Get("federation") == "1"
	sp.Autoscale = q.Get("autoscale")
	var err error
	geti := func(name string) int {
		s := q.Get(name)
		if s == "" || err != nil {
			return 0
		}
		v, perr := strconv.Atoi(s)
		if perr != nil {
			err = fmt.Errorf("bad %s %q", name, s)
		}
		return v
	}
	sp.Nodes = geti("nodes")
	sp.GPUsPerNode = geti("gpus_per_node")
	sp.Days = geti("days")
	if s := q.Get("spot_scale"); s != "" && err == nil {
		if sp.SpotScale, err = strconv.ParseFloat(s, 64); err != nil {
			err = fmt.Errorf("bad spot_scale %q", s)
		}
	}
	if s := q.Get("seed"); s != "" && err == nil {
		if sp.Seed, err = strconv.ParseInt(s, 10, 64); err != nil {
			err = fmt.Errorf("bad seed %q", s)
		}
	}
	return sp, err
}
