package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	gfs "github.com/sjtucitlab/gfs"
	"github.com/sjtucitlab/gfs/internal/jsonenc"
	"github.com/sjtucitlab/gfs/internal/runspec"
	"github.com/sjtucitlab/gfs/internal/trace"
)

// This file holds the daemon's original event encoder — wireEvent,
// toWire, one json.Marshal per event — as the oracle the ring and the
// per-batch appender are tested against, byte for byte.

// wireEvent is one simulator event as the stream serializes it: the
// gfs.Event fields relevant to its kind, flattened to JSON-friendly
// scalars. Seq is the log's own contiguous counter (the stream
// cursor), not the simulator's. The synthetic kind "gap" marks events
// a slow client missed because they fell off the session's bounded
// ring; Dropped counts them.
type wireEvent struct {
	Seq  uint64 `json:"seq"`
	At   int64  `json:"at"`
	Kind string `json:"kind"`
	// Task identity, set on task lifecycle events.
	Task  int     `json:"task,omitempty"`
	Class string  `json:"class,omitempty"`
	Org   string  `json:"org,omitempty"`
	GPUs  float64 `json:"gpus,omitempty"`
	// Eviction detail (TaskEvicted).
	Cause string  `json:"cause,omitempty"`
	Waste float64 `json:"waste,omitempty"`
	// Node identity (NodeDown/NodeUp); pointer so node 0 survives
	// omitempty.
	Node *int `json:"node,omitempty"`
	// Quota tick detail (QuotaUpdated); QuotaValue renders an
	// unlimited quota as "unlimited" instead of an unmarshalable
	// +Inf.
	Quota *gfs.QuotaValue `json:"quota,omitempty"`
	Used  float64         `json:"used,omitempty"`
	Eta   float64         `json:"eta,omitempty"`
	// Allocation sample detail (AllocSampled; Used is shared with
	// quota ticks).
	Capacity float64 `json:"capacity,omitempty"`
	// Federation tags (member streams leave them empty).
	Member string `json:"member,omitempty"`
	Target string `json:"target,omitempty"`
	// Dropped counts the events a "gap" record stands in for.
	Dropped uint64 `json:"dropped,omitempty"`
}

// toWire flattens a simulator event for the stream, stamping it with
// the log's sequence number.
func toWire(e gfs.Event, seq uint64) wireEvent {
	w := wireEvent{Seq: seq, At: int64(e.At), Kind: e.Kind.String(), Member: e.Member, Target: e.Target}
	if t := e.Task; t != nil {
		w.Task = t.ID
		w.Class = t.Type.String()
		w.Org = t.Org
		w.GPUs = t.TotalGPUs()
	}
	switch e.Kind {
	case gfs.TaskEvicted:
		w.Cause = e.Cause.String()
		w.Waste = e.Waste
	case gfs.QuotaUpdated:
		q := gfs.QuotaValue(e.Quota)
		w.Quota = &q
		w.Used = e.Used
		w.Eta = e.Eta
	case gfs.NodeDown, gfs.NodeUp:
		id := e.Node.ID
		w.Node = &id
	case gfs.AllocSampled:
		w.Used = e.Used
		w.Capacity = e.Capacity
	}
	return w
}

// oracleEmit writes one record as the original handler did.
func oracleEmit(w io.Writer, e wireEvent, sse bool) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	if sse {
		_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Kind, data)
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// oracleBatch is the original handler's output for one read: the gap
// record when gap > 0 (its seq that of the first event), then the
// events, stopping at the first that fails to encode.
func oracleBatch(first, gap uint64, evs []wireEvent, sse bool) ([]byte, error) {
	var buf bytes.Buffer
	if gap > 0 {
		if err := oracleEmit(&buf, wireEvent{Seq: first, Kind: "gap", Dropped: gap}, sse); err != nil {
			return buf.Bytes(), err
		}
	}
	for _, e := range evs {
		if err := oracleEmit(&buf, e, sse); err != nil {
			return buf.Bytes(), err
		}
	}
	return buf.Bytes(), nil
}

// encodeRead is what handleEvents writes for one read.
func encodeRead(b batch, sse bool) ([]byte, error) { return appendBatch(nil, b, sse) }

// Special floats every fuzzed float field is drawn from, besides the
// raw fuzzed value.
var specialFloats = []float64{0, math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e-7, 1e21, -1e21, 1e-6, 123456.789, 0.1}

// pickFloat maps a selector and a raw value to a float: the raw value
// or one of specialFloats.
func pickFloat(sel uint8, raw float64) float64 {
	if i := int(sel) % (len(specialFloats) + 1); i < len(specialFloats) {
		return specialFloats[i]
	}
	return raw
}

// fuzzKinds are the kinds a fuzzed event takes: every defined kind
// plus one no kind has.
var fuzzKinds = []gfs.EventKind{
	gfs.TaskArrived, gfs.TaskStarted, gfs.TaskEvicted, gfs.TaskFinished,
	gfs.QuotaUpdated, gfs.NodeDown, gfs.NodeUp, gfs.TaskMigrated,
	gfs.ClusterSaturated, gfs.AllocSampled, gfs.NodeProvisioned, gfs.NodeRetired,
	gfs.EventKind(200),
}

// FuzzEventEncoding is the differential witness for the event path:
// random events, appended to a small ring and read back from sequence
// 0 (so a gap record precedes them when the ring dropped any), encode
// to exactly the NDJSON and SSE bytes of the original toWire +
// json.Marshal path, and fail exactly when it fails. Every float may
// be NaN, ±Inf, -0, 1e-7 or 1e21; a task may ride any kind; node IDs
// include 0; strings include HTML, quote, control and non-UTF-8 bytes;
// federated events carry Member and Target. A benign event precedes
// the fuzzed one, so an encode error must keep the bytes before it.
func FuzzEventEncoding(f *testing.F) {
	f.Add(uint8(0), true, int64(7), uint8(1), 2, 4.0, "OrgA", uint8(1), 0, uint8(11), uint8(11), 0.0, uint8(11), 0.0, uint8(11), 0.0, uint8(11), 0.0, uint8(11), 0.0, "", "", int64(60), uint8(4), uint8(2))
	f.Add(uint8(2), true, int64(0), uint8(0), 1, 0.5, "<b>\"q\"&", uint8(3), 0, uint8(5), uint8(11), 0.0, uint8(0), 0.0, uint8(0), 0.0, uint8(0), 0.0, uint8(0), 0.0, "west", "", int64(0), uint8(1), uint8(3))
	f.Add(uint8(4), false, int64(0), uint8(0), 0, 0.0, "", uint8(0), 0, uint8(11), uint8(11), 0.0, uint8(2), 1.5, uint8(4), 2.0, uint8(5), 0.0, uint8(0), 0.0, "", "", int64(3600), uint8(8), uint8(1))
	f.Add(uint8(4), false, int64(0), uint8(0), 0, 0.0, "", uint8(0), 0, uint8(11), uint8(11), 0.0, uint8(1), 0.0, uint8(3), 0.0, uint8(6), 0.0, uint8(0), 0.0, "", "", int64(1), uint8(8), uint8(1))
	f.Add(uint8(5), true, int64(3), uint8(1), 1, 1.0, "é\u2028\x01", uint8(0), 0, uint8(0), uint8(11), 0.0, uint8(0), 0.0, uint8(0), 0.0, uint8(0), 0.0, uint8(0), 0.0, "", "", int64(9), uint8(2), uint8(2))
	f.Add(uint8(7), true, int64(-5), uint8(0), 3, 8.0, "org\xff", uint8(0), 12, uint8(11), uint8(11), 0.0, uint8(0), 0.0, uint8(0), 0.0, uint8(0), 0.0, uint8(0), 0.0, "west", "east\t<>", int64(7), uint8(1), uint8(5))
	f.Add(uint8(9), false, int64(0), uint8(0), 0, 0.0, "", uint8(0), 0, uint8(0), uint8(11), 0.0, uint8(0), 0.0, uint8(5), 0.0, uint8(0), 0.0, uint8(7), 0.0, "", "", int64(0), uint8(3), uint8(2))
	f.Add(uint8(12), true, int64(1), uint8(9), 1, 1.0, "", uint8(9), 0, uint8(1), uint8(11), 0.0, uint8(0), 0.0, uint8(0), 0.0, uint8(0), 0.0, uint8(0), 0.0, "", "", int64(0), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, kindSel uint8, hasTask bool, taskID int64, class uint8, pods int, gpp float64, org string,
		cause uint8, node int, gppSel, wasteSel uint8, waste float64, quotaSel uint8, quota float64, usedSel uint8, used float64,
		etaSel uint8, eta float64, capSel uint8, capacity float64, member, target string, at int64, ringCap, count uint8) {
		e := gfs.Event{
			Kind:     fuzzKinds[int(kindSel)%len(fuzzKinds)],
			At:       gfs.Time(at),
			Cause:    gfs.EvictCause(cause % 6),
			Node:     &gfs.Node{ID: node},
			Waste:    pickFloat(wasteSel, waste),
			Quota:    pickFloat(quotaSel, quota),
			Used:     pickFloat(usedSel, used),
			Eta:      pickFloat(etaSel, eta),
			Capacity: pickFloat(capSel, capacity),
			Member:   member,
			Target:   target,
		}
		if hasTask {
			e.Task = &gfs.Task{ID: int(taskID), Org: org, Type: gfs.TaskType(class % 3), Pods: pods % 64, GPUsPerPod: pickFloat(gppSel, gpp)}
		}
		benign := gfs.Event{Kind: gfs.AllocSampled, At: 1, Used: 2, Capacity: 8, Member: member}
		// The benign event repeats count times ahead of the fuzzed
		// one, through a ring of ringCap slots.
		n := 1 + int(count%8)
		l := newEventLog(1+int(ringCap%8), realClock{})
		var evs []wireEvent
		for i := 0; i < n; i++ {
			l.append(benign)
			evs = append(evs, toWire(benign, uint64(i)))
		}
		l.append(e)
		evs = append(evs, toWire(e, uint64(n)))
		base := uint64(len(evs)) - l.retained()
		var recs [16]rec
		b := l.read(0, recs[:])
		for _, sse := range []bool{false, true} {
			want, wantErr := oracleBatch(base, base, evs[base:], sse)
			got, gotErr := encodeRead(b, sse)
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("sse=%v: error %v, oracle error %v (event %+v, task %+v)", sse, gotErr, wantErr, e, e.Task)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("sse=%v: encoded\n%q\noracle\n%q", sse, got, want)
			}
		}
	})
}

// syntheticEvent is event i of a deterministic mixed stream: task
// lifecycle events over a few orgs, evictions, quota ticks, node
// events (node 0 included) and allocation samples, some federated.
func syntheticEvent(i int) gfs.Event {
	orgs := []string{"OrgA", "OrgB", "<Org&C>", ""}
	e := gfs.Event{At: gfs.Time(10 * i)}
	switch i % 6 {
	case 0, 1:
		e.Kind = gfs.TaskArrived + gfs.EventKind(i%2)
		e.Task = &gfs.Task{ID: i, Org: orgs[i%len(orgs)], Type: gfs.TaskType(i % 2), Pods: 1 + i%3, GPUsPerPod: 0.5 * float64(1+i%4)}
	case 2:
		e.Kind = gfs.TaskEvicted
		e.Task = &gfs.Task{ID: i, Org: orgs[i%len(orgs)], Pods: 1, GPUsPerPod: 1}
		e.Cause, e.Waste = gfs.CausePreempted, float64(i)*0.25
	case 3:
		e.Kind, e.Quota, e.Used, e.Eta = gfs.QuotaUpdated, float64(i), float64(i%5), 0.9
		if i%4 == 3 {
			e.Quota = math.Inf(1)
		}
	case 4:
		e.Kind, e.Node = gfs.NodeDown+gfs.EventKind(i%2), &gfs.Node{ID: i % 3}
	case 5:
		e.Kind, e.Used, e.Capacity = gfs.AllocSampled, float64(i%7), 64
	}
	if i%5 == 0 {
		e.Member = "west"
		if e.Kind == gfs.TaskArrived {
			e.Kind, e.Target = gfs.TaskMigrated, "east"
		}
	}
	return e
}

// ringModel is the plain-slice ring the chunked one is checked
// against: the first total events of the syntheticEvent stream, the
// last capacity of them retained. It caches each event's oracle
// record, NDJSON and SSE.
type ringModel struct {
	capacity int
	total    uint64
	enc      [2][][]byte
}

// add records the next event of the stream.
func (m *ringModel) add(t *testing.T) {
	t.Helper()
	i := m.total
	for k, sse := range []bool{false, true} {
		if uint64(len(m.enc[k])) == i {
			rec, err := oracleBatch(0, 0, []wireEvent{toWire(syntheticEvent(int(i)), i)}, sse)
			if err != nil {
				t.Fatal(err)
			}
			m.enc[k] = append(m.enc[k], rec)
		}
	}
	m.total++
}

// checkRead compares one read of bufLen events at cursor against the
// model: first, gap and length, then the bytes of both encodings.
func (m *ringModel) checkRead(t *testing.T, b batch, cursor uint64, bufLen int) {
	t.Helper()
	base := m.total - min(m.total, uint64(m.capacity))
	first := min(cursor, m.total)
	var gap uint64
	if first < base {
		gap, first = base-first, base
	}
	end := min(m.total, first+uint64(bufLen))
	if b.first != first || b.gap != gap || uint64(len(b.recs)) != end-first {
		t.Fatalf("read(cursor %d) over %d events, cap %d: first %d gap %d n %d; model first %d gap %d n %d",
			cursor, m.total, m.capacity, b.first, b.gap, len(b.recs), first, gap, end-first)
	}
	for k, sse := range []bool{false, true} {
		got, err := encodeRead(b, sse)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := oracleBatch(first, gap, nil, sse)
		want = bytes.Join(append([][]byte{want}, m.enc[k][first:end]...), nil)
		if !bytes.Equal(got, want) {
			t.Fatalf("read(cursor %d) over %d events, cap %d, sse=%v:\n%s\nmodel:\n%s", cursor, m.total, m.capacity, sse, got, want)
		}
	}
}

// TestRingChunkEdges checks the chunked ring against a plain slice
// ring at capacities on both sides of a chunk and with event counts on
// both sides of each capacity: retained events, dropped counts, gap
// records and from= resumption across the dropped range, for every
// read size from one event to a full stream batch. A second pass reads
// while the run appends, so the reader keeps up, lags, or falls off
// the ring between reads.
func TestRingChunkEdges(t *testing.T) {
	var enc [2][][]byte // oracle records, shared by every model
	buf := make([]rec, streamBatch)
	for _, capacity := range []int{1, 3, 255, 256, 257, 2048} {
		for _, n := range []int{0, capacity - 1, capacity, capacity + 1, 2*capacity - 1, 2 * capacity, 2*capacity + 1, 3*capacity + 7} {
			if n < 0 {
				continue
			}
			l := newEventLog(capacity, realClock{})
			m := &ringModel{capacity: capacity, enc: enc}
			for i := 0; i < n; i++ {
				l.append(syntheticEvent(i))
				m.add(t)
			}
			enc = m.enc
			total := uint64(n)
			dropped := total - min(total, uint64(capacity))
			if p := l.progress(); p.Events != total || p.DroppedEvents != dropped {
				t.Fatalf("cap %d, %d events: progress %+v, want %d events, %d dropped", capacity, n, p, total, dropped)
			}
			if want := (min(n, capacity) + chunkSlots - 1) / chunkSlots; len(l.chunks) != want {
				t.Fatalf("cap %d, %d events: %d chunks, want %d", capacity, n, len(l.chunks), want)
			}
			for _, bufLen := range []int{1, 7, chunkSlots, streamBatch} {
				for _, cursor := range []uint64{0, dropped / 2, dropped - min(dropped, 1), dropped, dropped + 1, total - min(total, 1), total, total + 5} {
					m.checkRead(t, l.read(cursor, buf[:bufLen]), cursor, bufLen)
				}
				// Draining from 0 yields one gap, then every retained
				// event exactly once.
				var gaps, events uint64
				for cursor := uint64(0); ; {
					b := l.read(cursor, buf[:bufLen])
					m.checkRead(t, b, cursor, bufLen)
					if b.gap > 0 {
						gaps++
					}
					events += uint64(len(b.recs))
					if len(b.recs) == 0 {
						break
					}
					cursor = b.next()
				}
				if want := min(dropped, 1); gaps != want || events != total-dropped {
					t.Fatalf("cap %d, %d events, reads of %d: %d gaps and %d events, want %d and %d", capacity, n, bufLen, gaps, events, want, total-dropped)
				}
			}

			// Interleaved: a reader taking up to 7 events every stride
			// appends.
			for _, stride := range []int{1, 5, capacity + 2} {
				l := newEventLog(capacity, realClock{})
				m := &ringModel{capacity: capacity, enc: enc}
				var cursor uint64
				for i := 0; i < n; i++ {
					l.append(syntheticEvent(i))
					m.add(t)
					if i%stride == 0 {
						b := l.read(cursor, buf[:7])
						m.checkRead(t, b, cursor, 7)
						cursor = b.next()
					}
				}
			}
		}
	}
}

// referenceWire runs a spec directly and returns its event stream as
// the oracle flattens it.
func referenceWire(t *testing.T, spec RunSpec, src gfs.TraceSource) []wireEvent {
	t.Helper()
	var evs []wireEvent
	built, err := runspec.Build(spec, src, gfs.ObserverFunc(func(e gfs.Event) {
		evs = append(evs, toWire(e, uint64(len(evs))))
	}))
	if err != nil {
		t.Fatal(err)
	}
	if out := built.Run(context.Background()); out.Err != nil {
		t.Fatal(out.Err)
	}
	return evs
}

// getStream fetches a finished session's event stream.
func getStream(t *testing.T, ts *httptest.Server, id, query string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/events?" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET events?%s = %d (%s)", query, resp.StatusCode, data)
	}
	return data
}

// TestStreamMatchesOracle: the NDJSON and SSE bytes a session streams
// — single-cluster, federated (member and target tags), scenario-hit
// (node events) and quota-ticking runs — equal the original encoder's
// over the same run's events.
func TestStreamMatchesOracle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, EventBuffer: 1 << 20})
	specs := []RunSpec{
		smallSpec(),
		{Scheduler: "gfs", Nodes: 4, Days: 1, Scenario: "rack-failure"},
		{Federation: true, Route: "round-robin", Nodes: 4, Days: 1, Scenario: "rack-failure"},
	}
	for _, spec := range specs {
		st := postSpec(t, ts, spec, http.StatusAccepted)
		waitState(t, ts, st.ID, StateDone, 60*time.Second)
		ref := referenceWire(t, spec, nil)
		for _, sse := range []bool{false, true} {
			query := "follow=false"
			if sse {
				query += "&format=sse"
			}
			want, err := oracleBatch(0, 0, ref, sse)
			if err != nil {
				t.Fatal(err)
			}
			if got := getStream(t, ts, st.ID, query); !bytes.Equal(got, want) {
				t.Fatalf("%+v sse=%v: streamed %d bytes differ from the oracle's %d", spec, sse, len(got), len(want))
			}
		}
	}
}

// TestNeverReadingConsumer: a client that reads nothing until the run
// ends, then asks for everything from 0 through a ring smaller than
// the stream, gets exactly one gap record standing in for total −
// EventBuffer events, then the retained tail byte for byte.
func TestNeverReadingConsumer(t *testing.T) {
	const buffer = 64
	_, ts := newTestServer(t, Config{Workers: 1, EventBuffer: buffer})
	st := postSpec(t, ts, smallSpec(), http.StatusAccepted)
	done := waitState(t, ts, st.ID, StateDone, 30*time.Second)
	ref := referenceWire(t, smallSpec(), nil)
	total := uint64(len(ref))
	if total <= buffer || done.Progress.Events != total {
		t.Fatalf("session emitted %d events (reference %d); the test needs more than %d", done.Progress.Events, total, buffer)
	}
	if done.Progress.DroppedEvents != total-buffer {
		t.Fatalf("dropped_events = %d, want %d", done.Progress.DroppedEvents, total-buffer)
	}
	for _, sse := range []bool{false, true} {
		query := "from=0"
		if sse {
			query += "&format=sse"
		}
		got := getStream(t, ts, st.ID, query)
		want, err := oracleBatch(total-buffer, total-buffer, ref[total-buffer:], sse)
		if err != nil {
			t.Fatal(err)
		}
		if n := bytes.Count(got, []byte(`"kind":"gap"`)); n != 1 {
			t.Fatalf("sse=%v: %d gap records, want 1", sse, n)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("sse=%v: stream differs from the oracle:\n%s\nwant:\n%s", sse, got[:min(len(got), 300)], want[:min(len(want), 300)])
		}
	}
}

// TestRecordIsCompact pins the ring record: at most 72 bytes and no
// field the garbage collector has to scan.
func TestRecordIsCompact(t *testing.T) {
	if size := unsafe.Sizeof(rec{}); size > 72 {
		t.Fatalf("rec is %d bytes, want <= 72", size)
	}
	var walk func(reflect.Type, string)
	walk = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(typ.Field(i).Type, path+"."+typ.Field(i).Name)
			}
		case reflect.Array:
			walk(typ.Elem(), path+"[]")
		case reflect.Pointer, reflect.Slice, reflect.String, reflect.Map, reflect.Interface, reflect.Chan, reflect.Func, reflect.UnsafePointer:
			t.Errorf("rec%s is a %s: the ring must stay pointer-free", path, typ.Kind())
		}
	}
	walk(reflect.TypeOf(rec{}), "")
}

// TestRingGrowsWithUse: a ring takes memory as events arrive, in
// chunks of at most chunkSlots, never its whole capacity up front.
func TestRingGrowsWithUse(t *testing.T) {
	l := newEventLog(16384, realClock{})
	if len(l.chunks) != 0 {
		t.Fatalf("fresh log holds %d chunks", len(l.chunks))
	}
	for i := 0; i < 100; i++ {
		l.append(syntheticEvent(i))
	}
	if len(l.chunks) != 1 || len(l.chunks[0]) != chunkSlots {
		t.Fatalf("100 events in a 16384-event log: %d chunks, want 1 of %d slots", len(l.chunks), chunkSlots)
	}
	// Small and ragged capacities size their chunks to fit.
	for _, c := range []struct {
		capacity int
		lens     []int
	}{{1, []int{1}}, {3, []int{3}}, {257, []int{256, 1}}, {600, []int{256, 256, 88}}} {
		l := newEventLog(c.capacity, realClock{})
		for i := 0; i < 3*c.capacity; i++ {
			l.append(syntheticEvent(i))
		}
		var lens []int
		for _, ch := range l.chunks {
			lens = append(lens, len(ch))
		}
		if !reflect.DeepEqual(lens, c.lens) {
			t.Fatalf("capacity %d: chunk sizes %v, want %v", c.capacity, lens, c.lens)
		}
	}
}

// TestAppendDoesNotAllocate: once the ring has its chunks and the
// event's strings are interned, an append allocates nothing.
func TestAppendDoesNotAllocate(t *testing.T) {
	l := newEventLog(300, realClock{})
	tk := &gfs.Task{ID: 9, Org: "OrgA", Type: gfs.HP, Pods: 2, GPUsPerPod: 4}
	events := []gfs.Event{
		{Kind: gfs.TaskStarted, Task: tk, Member: "west"},
		{Kind: gfs.TaskEvicted, Task: tk, Cause: gfs.CauseReclaimed, Waste: 3},
		{Kind: gfs.QuotaUpdated, Quota: math.Inf(1), Used: 2, Eta: 0.5},
		{Kind: gfs.NodeDown, Node: &gfs.Node{ID: 4}},
		{Kind: gfs.AllocSampled, Used: 3, Capacity: 16},
		{Kind: gfs.TaskMigrated, Task: tk, Member: "west", Target: "east"},
	}
	for i := 0; i < 2*300; i++ {
		l.append(events[i%len(events)])
	}
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		l.append(events[i%len(events)])
		i++
	}); allocs != 0 {
		t.Fatalf("steady-state append allocates %v times, want 0", allocs)
	}
}

// discardWriter is a ResponseWriter that keeps nothing.
type discardWriter struct{ h http.Header }

func (w discardWriter) Header() http.Header         { return w.h }
func (w discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w discardWriter) WriteHeader(int)             {}

// TestStreamAllocatesPerBatch: streaming a 10,000-event session costs
// a bounded number of allocations per batch of streamBatch events, not
// any per event, in both encodings.
func TestStreamAllocatesPerBatch(t *testing.T) {
	const events = 10000
	svc := New(Config{Workers: 1, EventBuffer: events})
	defer svc.Close()
	sess := svc.reg.add(context.Background(), RunSpec{}, nil, events)
	for i := 0; i < events; i++ {
		sess.log.append(syntheticEvent(i))
	}
	sess.finish(StateDone, gfs.BatchResult{}, "")
	batches := (events + streamBatch - 1) / streamBatch
	for _, query := range []string{"follow=false", "follow=false&format=sse"} {
		req := httptest.NewRequest(http.MethodGet, "/v1/sessions/"+sess.ID()+"/events?"+query, nil)
		w := discardWriter{h: http.Header{}}
		allocs := testing.AllocsPerRun(20, func() { svc.ServeHTTP(w, req) })
		t.Logf("%s: %d events in %d batches, %v allocations", query, events, batches, allocs)
		if limit := float64(batches + 10); allocs > limit {
			t.Fatalf("%s: streaming %d events in %d batches allocates %v times, want <= %v", query, events, batches, allocs, limit)
		}
	}
}

// countingSource counts Close calls on a wrapped source.
type countingSource struct {
	gfs.TraceSource
	closes int
}

func (c *countingSource) Close() error { c.closes++; return c.TraceSource.Close() }

// TestFinishedSessionDropsSource: once a session's worker has run or
// discarded its trace source, the session no longer references it, so
// a finished session does not pin the decoder until its TTL; a session
// cancelled while queued closes its source exactly once. Every
// finished session has released its context.
func TestFinishedSessionDropsSource(t *testing.T) {
	svc, _ := newTestServer(t, Config{Workers: 1, Backlog: 4})
	ran := &countingSource{TraceSource: inlineSource([]json.RawMessage{
		json.RawMessage(`{"id":1,"org":"alpha","type":"hp","pods":1,"gpus_per_pod":1,"duration_s":600,"submit_s":0}`),
	})}
	sess, err := svc.startSession(RunSpec{Scheduler: "yarn", Nodes: 2}, ran)
	if err != nil {
		t.Fatal(err)
	}
	<-sess.Done()
	if sess.State() != StateDone || sess.src != nil || ran.closes == 0 || sess.ctx.Err() == nil {
		t.Fatalf("finished session: state %s, source still held %v, closes %d, ctx err %v",
			sess.State(), sess.src != nil, ran.closes, sess.ctx.Err())
	}

	blocker, err := svc.startSession(slowSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	queued := &countingSource{TraceSource: trace.SliceSource(nil)}
	waiting, err := svc.startSession(smallSpec(), queued)
	if err != nil {
		t.Fatal(err)
	}
	if !waiting.Cancel() {
		t.Fatalf("session behind a running one was %s, want queued", waiting.State())
	}
	blocker.Cancel()
	svc.Close() // drains the pool: the worker has discarded the queued source
	if waiting.src != nil || queued.closes != 1 {
		t.Fatalf("cancelled-while-queued session: source still held %v, closed %d times, want once", waiting.src != nil, queued.closes)
	}
}

// TestAppendJSONStringMatchesEncodingJSON spot-checks the stream's
// string escaper, jsonenc.AppendString with HTML escaping on, on the
// cases encoding/json treats specially.
func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range []string{"", "plain", `q"b\s`, "<a href='x'>&amp;</a>", "\b\f\n\r\t\x00\x1f\x7f", "é漢字🙂", "\u2028\u2029", "bad\xff\xfe\xc3", strings.Repeat("x", 100)} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := jsonenc.AppendString(nil, s, true); !bytes.Equal(got, want) {
			t.Errorf("AppendString(%q, true) = %s, want %s", s, got, want)
		}
	}
}
