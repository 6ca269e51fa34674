package service

import (
	"errors"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"

	gfs "github.com/sjtucitlab/gfs"
	"github.com/sjtucitlab/gfs/internal/jsonenc"
)

// streamBatch bounds how many events one read drains before flushing
// to the client — large enough to amortize syscalls, small enough to
// keep the stream live.
const streamBatch = 512

// streamBuf is one stream handler's scratch: the records a read copies
// out of the ring and the bytes a batch encodes to. Handlers borrow
// them from streamBufs, so a stream allocates neither per event nor,
// in steady state, per batch.
type streamBuf struct {
	recs [streamBatch]rec
	out  []byte
}

var streamBufs = sync.Pool{New: func() any { return new(streamBuf) }}

// maxPooledOut caps the encode buffer a handler returns to the pool;
// an outsized one (very long org names) is left to the collector.
const maxPooledOut = 1 << 20

// handleEvents streams a session's events as they happen.
//
//	?format=ndjson (default) | sse   encoding; Accept: text/event-stream
//	                                  also selects SSE
//	?from=N                          resume from stream sequence N
//	?follow=false                    dump what's buffered and return
//
// The stream ends when the session reaches a terminal state (or, with
// follow=false, when the buffer is drained). A client that reads too
// slowly and falls off the session's bounded ring receives a
// synthetic {"kind":"gap","dropped":N} record and resumes from the
// oldest retained event — the daemon never blocks the simulation on a
// slow consumer.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	sse := q.Get("format") == "sse" ||
		(q.Get("format") == "" && strings.Contains(r.Header.Get("Accept"), "text/event-stream"))
	if f := q.Get("format"); f != "" && f != "sse" && f != "ndjson" {
		httpError(w, http.StatusBadRequest, "unknown stream format %q (valid: ndjson, sse)", f)
		return
	}
	follow := q.Get("follow") != "false"
	var cursor uint64
	if from := q.Get("from"); from != "" {
		v, err := strconv.ParseUint(from, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad from %q", from)
			return
		}
		cursor = v
	}

	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, canFlush := w.(http.Flusher)
	flush := func() {
		if canFlush {
			flusher.Flush()
		}
	}
	buf := streamBufs.Get().(*streamBuf)
	defer func() {
		if cap(buf.out) > maxPooledOut {
			buf.out = nil
		}
		streamBufs.Put(buf)
	}()

	flush() // push headers out so clients see the stream open
	for {
		b := sess.log.read(cursor, buf.recs[:])
		var err error
		buf.out, err = appendBatch(buf.out[:0], b, sse)
		if len(buf.out) > 0 {
			if _, werr := w.Write(buf.out); werr != nil {
				return
			}
		}
		if err != nil {
			// An event JSON cannot carry (a NaN or infinite float)
			// ends the stream after the events before it.
			return
		}
		cursor = b.next()
		if len(b.recs) > 0 {
			flush()
			continue
		}
		if b.closed || !follow {
			return
		}
		select {
		case <-b.wait:
		case <-r.Context().Done():
			return
		}
	}
}

// appendBatch encodes a read as stream records: the gap record when
// the cursor fell off the ring, then each event. On an event JSON
// cannot carry it returns the records before it and the error.
func appendBatch(dst []byte, b batch, sse bool) ([]byte, error) {
	if b.gap > 0 {
		dst = appendGap(dst, b.first, b.gap, sse)
	}
	for i := range b.recs {
		mark := len(dst)
		var err error
		if dst, err = appendEvent(dst, b.first+uint64(i), &b.recs[i], b.strs, sse); err != nil {
			return dst[:mark], err
		}
	}
	return dst, nil
}

// errUnsupportedFloat rejects a NaN or infinite float, which JSON
// cannot represent.
var errUnsupportedFloat = errors.New("service: event carries a NaN or infinite float")

// appendGap appends the synthetic record standing in for dropped
// events, the first retained one having sequence seq.
func appendGap(dst []byte, seq, dropped uint64, sse bool) []byte {
	dst = appendHead(dst, seq, "gap", sse)
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, seq, 10)
	dst = append(dst, `,"at":0,"kind":"gap","dropped":`...)
	dst = strconv.AppendUint(dst, dropped, 10)
	return appendTail(dst, sse)
}

// appendEvent appends one event's stream record: a JSON object, ended
// by a newline for NDJSON, framed as "id: <seq>\nevent: <kind>\ndata:
// <json>\n\n" for SSE. The object is byte for byte what
// encoding/json made of the daemon's original per-event struct:
// fields in the order seq, at, kind, task, class, org, gpus, cause,
// waste, node, quota, used, eta, capacity, member, target; every field
// after kind omitted when zero, except class and cause (always set on
// the events that carry them), node (on NodeDown/NodeUp, even node 0)
// and quota (on QuotaUpdated: "unlimited" for +Inf, null for -Inf and
// NaN). A NaN or infinite float elsewhere is errUnsupportedFloat, as
// it was for encoding/json.
func appendEvent(dst []byte, seq uint64, r *rec, strs []string, sse bool) ([]byte, error) {
	kind := r.kind.String()
	dst = appendHead(dst, seq, kind, sse)
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, seq, 10)
	dst = append(dst, `,"at":`...)
	dst = strconv.AppendInt(dst, r.at, 10)
	dst = append(dst, `,"kind":`...)
	dst = jsonenc.AppendString(dst, kind, true)
	var err error
	if r.hasTask {
		if r.task != 0 {
			dst = append(dst, `,"task":`...)
			dst = strconv.AppendInt(dst, r.task, 10)
		}
		dst = append(dst, `,"class":`...)
		dst = jsonenc.AppendString(dst, gfs.TaskType(r.class).String(), true)
		dst = appendStr(dst, `,"org":`, r.org, strs)
		dst = appendFloatField(dst, `,"gpus":`, r.gpus, &err)
	}
	switch r.kind {
	case gfs.TaskEvicted:
		dst = append(dst, `,"cause":`...)
		dst = jsonenc.AppendString(dst, r.cause.String(), true)
		dst = appendFloatField(dst, `,"waste":`, r.f[0], &err)
	case gfs.NodeDown, gfs.NodeUp:
		dst = append(dst, `,"node":`...)
		dst = strconv.AppendInt(dst, r.node, 10)
	case gfs.QuotaUpdated:
		dst = append(dst, `,"quota":`...)
		switch q := r.f[0]; {
		case math.IsInf(q, 1):
			dst = append(dst, `"unlimited"`...)
		case math.IsInf(q, -1) || math.IsNaN(q):
			dst = append(dst, `null`...)
		default:
			dst = jsonenc.AppendFloat(dst, q)
		}
		dst = appendFloatField(dst, `,"used":`, r.f[1], &err)
		dst = appendFloatField(dst, `,"eta":`, r.f[2], &err)
	case gfs.AllocSampled:
		dst = appendFloatField(dst, `,"used":`, r.f[0], &err)
		dst = appendFloatField(dst, `,"capacity":`, r.f[1], &err)
	}
	dst = appendStr(dst, `,"member":`, r.member, strs)
	dst = appendStr(dst, `,"target":`, r.target, strs)
	return appendTail(dst, sse), err
}

// appendHead opens a record: the SSE id and event lines.
func appendHead(dst []byte, seq uint64, kind string, sse bool) []byte {
	if !sse {
		return dst
	}
	dst = append(dst, "id: "...)
	dst = strconv.AppendUint(dst, seq, 10)
	dst = append(dst, "\nevent: "...)
	dst = append(dst, kind...)
	return append(dst, "\ndata: "...)
}

// appendTail closes a record's object and frame.
func appendTail(dst []byte, sse bool) []byte {
	if sse {
		return append(dst, "}\n\n"...)
	}
	return append(dst, "}\n"...)
}

// appendStr appends an interned string field unless it is empty.
func appendStr(dst []byte, key string, id uint32, strs []string) []byte {
	if id == 0 {
		return dst
	}
	dst = append(dst, key...)
	return append(dst, strs[id]...)
}

// appendFloatField appends a float field unless it is zero, recording
// errUnsupportedFloat in *err for a NaN or infinity.
func appendFloatField(dst []byte, key string, f float64, err *error) []byte {
	if f == 0 {
		return dst
	}
	if !jsonenc.Finite(f) {
		*err = errUnsupportedFloat
		return dst
	}
	dst = append(dst, key...)
	return jsonenc.AppendFloat(dst, f)
}
