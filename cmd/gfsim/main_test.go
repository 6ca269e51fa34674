package main

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"github.com/sjtucitlab/gfs/internal/experiments"
	"github.com/sjtucitlab/gfs/internal/runspec"
)

// parse runs parseFlags over a throwaway flag set.
func parse(args ...string) (*invocation, error) {
	fs := flag.NewFlagSet("gfsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseFlags(fs, args)
}

// TestFlagsLowerOntoSpec: the command line is a spec. No flags is the
// default spec; flags land on the fields a gfsd session would set.
func TestFlagsLowerOntoSpec(t *testing.T) {
	var def runspec.Spec
	def.Normalize()
	inv, err := parse()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inv.spec, def) {
		t.Fatalf("no flags = %+v, want the spec defaults %+v", inv.spec, def)
	}
	if !inv.trained || inv.variant != experiments.GFSFull || inv.hours != 1 {
		t.Fatalf("no flags should train the full GFS stack at H=1, got %+v", inv)
	}

	inv, err = parse("-scheduler", "gfs-e", "-nodes", "64", "-days", "2", "-spotscale", "2", "-seed", "5",
		"-hours", "4", "-scenario", "rack-failure", "-autoscale", "reactive", "-report", "jsonl", "-events", "9")
	if err != nil {
		t.Fatal(err)
	}
	want := def
	want.Nodes, want.Days, want.SpotScale, want.Seed = 64, 2, 2, 5
	want.Scenario = "rack-failure"
	want.Autoscale = "reactive"
	if !reflect.DeepEqual(inv.spec, want) {
		t.Fatalf("spec = %+v, want %+v", inv.spec, want)
	}
	if !inv.trained || inv.variant != experiments.GFSNaiveForecast || inv.hours != 4 || inv.events != 9 || inv.report != "jsonl" {
		t.Fatalf("CLI-only knobs lost: %+v", inv)
	}

	if inv, err = parse("-scheduler", "yarn"); err != nil || inv.trained || inv.spec.Scheduler != "yarn" {
		t.Fatalf("-scheduler yarn = (%+v, %v), want the untrained yarn spec", inv, err)
	}
	inv, err = parse("-federation", "-route", "round-robin", "-trace", "t.csv")
	if err != nil || inv.trained || !inv.spec.Federation || inv.spec.Route != "round-robin" || inv.trace != "t.csv" {
		t.Fatalf("-federation = (%+v, %v), want an untrained federated replay", inv, err)
	}
}

// TestRejections: combinations a spec cannot express are rejected by
// gfsim; everything else by the one spec validator, with the message
// a gfsd session gets for the same mistake.
func TestRejections(t *testing.T) {
	// specError is what the daemon's decoder says about the same spec.
	specError := func(body string) string {
		_, err := runspec.Decode([]byte(body))
		if err == nil {
			t.Fatalf("spec %s should be rejected", body)
		}
		return err.Error()
	}
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-trace", "t.csv", "-days", "2"}, "-days does not apply to -trace"},
		{[]string{"-trace", "t.csv", "-spotscale", "2"}, "-spotscale does not apply to -trace"},
		{[]string{"-federation", "-scheduler", "gfs"}, "-scheduler does not apply to -federation"},
		{[]string{"-federation", "-hours", "2"}, "-hours does not apply to -federation"},
		{[]string{"-federation", "-autoscale", "reactive"}, specError(`{"federation":true,"autoscale":"reactive"}`)},
		{[]string{"-scheduler", "nope"}, specError(`{"scheduler":"nope"}`)},
		{[]string{"-federation", "-route", "nope"}, specError(`{"federation":true,"route":"nope"}`)},
		{[]string{"-scenario", "nope"}, specError(`{"scenario":"nope"}`)},
		{[]string{"-autoscale", "nope"}, specError(`{"autoscale":"nope"}`)},
		{[]string{"-nodes", "100000"}, specError(`{"nodes":100000}`)},
		{[]string{"-report", "xml"}, runspec.CheckReportFormat("xml").Error()},
		{[]string{"-shards", "2"}, "flag provided but not defined: -shards"},
	}
	for _, c := range cases {
		_, err := parse(c.args...)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("gfsim %s: err = %v, want %q", strings.Join(c.args, " "), err, c.want)
		}
	}
}
