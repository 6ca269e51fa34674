package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/sjtucitlab/gfs/internal/trace"
)

// TestRoundTrip drives the whole command: generate a CSV trace,
// convert it to gzipped JSONL, validate the result from stdin, and
// read its stats back as JSON. The stats must be exactly what
// trace.Summarize makes of the generated tasks.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "trace.csv")
	jsonlPath := filepath.Join(dir, "trace.jsonl.gz")
	step := func(stdin []byte, args ...string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if code := run(args, bytes.NewReader(stdin), &stdout, &stderr); code != 0 {
			t.Fatalf("gfstrace %s: exit %d, stderr: %s", strings.Join(args, " "), code, stderr.String())
		}
		return stdout.String()
	}

	step(nil, "-days", "1", "-gpus", "64", "-seed", "3", "-out", csvPath)
	step(nil, "convert", "-in", csvPath, "-to", "jsonl", "-out", jsonlPath)
	gz, err := os.ReadFile(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(gz) < 2 || gz[0] != 0x1f || gz[1] != 0x8b {
		t.Fatal("convert -out *.gz wrote no gzip stream")
	}

	cfg := trace.Default()
	cfg.Days, cfg.ClusterGPUs, cfg.Seed = 1, 64, 3
	tasks := trace.Generate(cfg)
	want := trace.Summarize(tasks)
	if got := step(gz, "validate"); !strings.HasPrefix(got, fmt.Sprintf("ok: %d tasks,", len(tasks))) {
		t.Fatalf("validate printed %q, want %d tasks", got, len(tasks))
	}
	var got trace.Stats
	if err := json.Unmarshal([]byte(step(nil, "stats", "-in", jsonlPath, "-json")), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stats of the converted trace:\n got  %+v\n want %+v", got, want)
	}
}

// TestUnknownSubcommand: a word that is neither a flag nor a
// subcommand fails with exit status 1 and names itself on stderr,
// rather than falling through to generation.
func TestUnknownSubcommand(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"stat"}, nil, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), `gfstrace: unknown subcommand "stat"`) {
		t.Fatalf("stderr %q does not name the subcommand", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("a rejected run wrote %q to stdout", stdout.String())
	}
}

// TestConvertFailureLeavesNoFile: a CSV whose row 41 is malformed
// fails convert mid-stream with exit status 1, and the half-written
// -out file is removed rather than left as a truncated gzip stream.
func TestConvertFailureLeavesNoFile(t *testing.T) {
	dir := t.TempDir()
	csvPath, badPath, outPath := filepath.Join(dir, "t.csv"), filepath.Join(dir, "bad.csv"), filepath.Join(dir, "o.csv.gz")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-days", "1", "-gpus", "64", "-seed", "3", "-out", csvPath}, nil, &stdout, &stderr); code != 0 {
		t.Fatalf("generate: exit %d, stderr: %s", code, stderr.String())
	}
	raw, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	if len(lines) < 50 {
		t.Fatalf("generated trace has %d lines, want a longer one", len(lines))
	}
	lines[41] = "41,not,a,task\n" // line 0 is the header
	if err := os.WriteFile(badPath, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	stderr.Reset()
	if code := run([]string{"convert", "-in", badPath, "-out", outPath}, nil, &stdout, &stderr); code != 1 {
		t.Fatalf("convert of a malformed trace: exit %d, want 1 (stderr: %s)", code, stderr.String())
	}
	if _, err := os.Stat(outPath); !os.IsNotExist(err) {
		t.Fatalf("convert failed but left %s behind (stat: %v)", outPath, err)
	}
}
