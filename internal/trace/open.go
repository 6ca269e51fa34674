package trace

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/sjtucitlab/gfs/internal/task"
)

// Format identifies a trace encoding the Open functions can decode or
// the encoders can produce.
type Format int

const (
	// FormatAuto sniffs the format from the stream: gzip by magic
	// bytes, JSONL by a leading '{', CSV variants by their header.
	FormatAuto Format = iota
	// FormatCSV is the package's CSV interchange layout (WriteCSV).
	FormatCSV
	// FormatJSONL is newline-delimited JSON (WriteJSONL).
	FormatJSONL
	// FormatAlibaba is the Alibaba GPU cluster trace task table (see
	// NewAlibabaSource).
	FormatAlibaba
	// FormatPhilly is the Philly-style per-job layout (see
	// NewPhillySource).
	FormatPhilly
)

// String implements fmt.Stringer.
func (f Format) String() string {
	switch f {
	case FormatAuto:
		return "auto"
	case FormatCSV:
		return "csv"
	case FormatJSONL:
		return "jsonl"
	case FormatAlibaba:
		return "alibaba"
	case FormatPhilly:
		return "philly"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// ParseFormat resolves a format name as accepted by the CLIs. Valid
// names: auto, csv, jsonl, alibaba, philly.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(s) {
	case "auto", "":
		return FormatAuto, nil
	case "csv":
		return FormatCSV, nil
	case "jsonl":
		return FormatJSONL, nil
	case "alibaba":
		return FormatAlibaba, nil
	case "philly":
		return FormatPhilly, nil
	}
	return FormatAuto, fmt.Errorf("trace: unknown format %q (valid: auto, csv, jsonl, alibaba, philly)", s)
}

// Open opens a trace file as a streaming Source, transparently
// decompressing gzip (sniffed by magic bytes, not extension) and
// auto-detecting the format. Closing the returned source closes the
// file.
func Open(path string) (Source, error) {
	return OpenFormat(path, FormatAuto)
}

// OpenFormat is Open with an explicit format (FormatAuto sniffs).
func OpenFormat(path string, f Format) (Source, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	src, err := OpenReader(file, f)
	if err != nil {
		file.Close()
		return nil, err
	}
	return &closerSource{Source: src, c: file}, nil
}

// OpenReader wraps an arbitrary stream (a file, stdin, an HTTP body)
// as a Source, transparently decompressing gzip and, under
// FormatAuto, sniffing the encoding: JSONL by a leading '{', CSV
// dialects by their header columns. The returned source's Close does
// not close r.
func OpenReader(r io.Reader, f Format) (Source, error) {
	br := bufio.NewReader(r)
	magic, err := br.Peek(2)
	if err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("trace: gzip: %w", err)
		}
		src, err := openPlain(bufio.NewReader(zr), f)
		if err != nil {
			zr.Close()
			return nil, err
		}
		// Closing the gzip reader verifies the stream checksum was
		// intact when the source was fully drained.
		return &closerSource{Source: src, c: zr}, nil
	}
	return openPlain(br, f)
}

// openPlain builds the format-specific decoder over an uncompressed
// stream.
func openPlain(br *bufio.Reader, f Format) (Source, error) {
	if f == FormatAuto {
		var err error
		f, err = sniffFormat(br)
		if err != nil {
			return nil, err
		}
	}
	switch f {
	case FormatCSV:
		return NewCSVSource(br)
	case FormatJSONL:
		return NewJSONLSource(br), nil
	case FormatAlibaba:
		return NewAlibabaSource(br)
	case FormatPhilly:
		return NewPhillySource(br)
	}
	return nil, fmt.Errorf("trace: cannot open format %v", f)
}

// sniffFormat inspects the buffered head of the stream: '{' means
// JSONL; otherwise the first line is a CSV header matched against the
// known dialects.
func sniffFormat(br *bufio.Reader) (Format, error) {
	head, err := br.Peek(4096)
	if len(head) == 0 {
		if err != nil && err != io.EOF {
			return FormatAuto, fmt.Errorf("trace: sniff: %w", err)
		}
		return FormatAuto, fmt.Errorf("trace: empty input")
	}
	trimmed := bytes.TrimLeft(head, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '{' {
		return FormatJSONL, nil
	}
	line := head
	if i := bytes.IndexByte(head, '\n'); i >= 0 {
		line = head[:i]
	}
	cols := strings.Split(strings.TrimSpace(string(line)), ",")
	have := make(map[string]bool, len(cols))
	for _, c := range cols {
		have[strings.ToLower(strings.TrimSpace(c))] = true
	}
	switch {
	case have["id"] && have["gpus_per_pod"]:
		return FormatCSV, nil
	case have["plan_gpu"]:
		return FormatAlibaba, nil
	case have["num_gpus"] && (have["jobid"] || have["job_id"]):
		return FormatPhilly, nil
	}
	return FormatAuto, fmt.Errorf("trace: unrecognized header %q (formats: csv, jsonl, alibaba, philly)", string(line))
}

// closerSource chains an extra closer (file handle, gzip reader)
// behind a source.
type closerSource struct {
	Source
	c io.Closer
}

func (s *closerSource) Close() error {
	err := s.Source.Close()
	if cerr := s.c.Close(); err == nil {
		err = cerr
	}
	return err
}

// Skipped implements Skipper when the wrapped source does.
func (s *closerSource) Skipped() int {
	if sk, ok := s.Source.(Skipper); ok {
		return sk.Skipped()
	}
	return 0
}

// NewEncoderFormat builds the encoder for an explicit output format
// (FormatCSV or FormatJSONL; the external read-only schemas cannot be
// written).
func NewEncoderFormat(w io.Writer, f Format) (Encoder, error) {
	switch f {
	case FormatCSV:
		return NewCSVEncoder(w), nil
	case FormatJSONL:
		return NewJSONLEncoder(w), nil
	}
	return nil, fmt.Errorf("trace: cannot encode format %v (writable: csv, jsonl)", f)
}

// FormatForPath picks the output encoding a path implies: .jsonl
// (optionally .gz-suffixed) means JSONL, everything else CSV.
func FormatForPath(path string) Format {
	p := strings.ToLower(strings.TrimSuffix(path, ".gz"))
	if strings.HasSuffix(p, ".jsonl") || strings.HasSuffix(p, ".ndjson") {
		return FormatJSONL
	}
	return FormatCSV
}

// CreateFileEncoder creates path for streaming trace output: the
// encoding follows f (FormatAuto defers to the extension via
// FormatForPath) and a .gz suffix layers gzip compression. The
// returned close function flushes the encoder, seals the gzip
// trailer, and closes the file, in that order; call it exactly once
// after the last Encode.
func CreateFileEncoder(path string, f Format) (Encoder, func() error, error) {
	if f == FormatAuto {
		f = FormatForPath(path)
	}
	file, err := os.Create(path)
	if err != nil {
		return nil, nil, fmt.Errorf("trace: %w", err)
	}
	var w io.Writer = file
	var zw *gzip.Writer
	if strings.HasSuffix(strings.ToLower(path), ".gz") {
		zw = gzip.NewWriter(file)
		w = zw
	}
	enc, err := NewEncoderFormat(w, f)
	if err != nil {
		file.Close()
		return nil, nil, err
	}
	closeAll := func() error {
		err := enc.Flush()
		if zw != nil {
			if cerr := zw.Close(); err == nil {
				err = cerr
			}
		}
		if cerr := file.Close(); err == nil {
			err = cerr
		}
		return err
	}
	return enc, closeAll, nil
}

// WriteFile writes tasks to path, choosing the encoding from the
// extension (FormatForPath) and gzip-compressing when the path ends
// in .gz. It is the write-side counterpart of Open.
func WriteFile(path string, tasks []*task.Task) error {
	enc, closeAll, err := CreateFileEncoder(path, FormatAuto)
	if err != nil {
		return err
	}
	for _, tk := range tasks {
		if err := enc.Encode(tk); err != nil {
			closeAll()
			return err
		}
	}
	return closeAll()
}
