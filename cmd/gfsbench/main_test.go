package main

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestRegistryWellFormed asserts every registry entry has a unique id
// and a runner.
func TestRegistryWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range registry {
		if e.id == "" || e.run == nil {
			t.Fatalf("registry entry %+v incomplete", e.id)
		}
		if e.id == "all" {
			t.Fatal("registry must not claim the reserved id \"all\"")
		}
		if seen[e.id] {
			t.Fatalf("duplicate registry id %q", e.id)
		}
		seen[e.id] = true
	}
}

// TestUsageEnumeratesRegistry asserts the -experiment usage string
// (derived from the registry) names every id exactly once, in
// registry order, with the "all" alias.
func TestUsageEnumeratesRegistry(t *testing.T) {
	usage := "experiment id (" + strings.Join(experimentIDs(), ", ") + ", or all; comma-separate to combine)"
	for _, id := range experimentIDs() {
		if !strings.Contains(usage, id) {
			t.Errorf("usage string missing experiment id %q", id)
		}
	}
	if !strings.Contains(usage, "all") {
		t.Error("usage string missing the \"all\" alias")
	}
}

// TestDocCommentEnumeratesRegistry asserts the package doc comment's
// "Experiments:" sentence lists exactly the registry ids (plus the
// "all" alias) — the one enumeration the compiler can't check.
func TestDocCommentEnumeratesRegistry(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?s)Experiments: (.*?)\.`).FindSubmatch(src)
	if m == nil {
		t.Fatal("main.go doc comment has no \"Experiments:\" sentence")
	}
	sentence := strings.NewReplacer("//", "", "\n", " ", " or ", " ").Replace(string(m[1]))
	var docIDs []string
	for _, f := range strings.Split(sentence, ",") {
		if f = strings.TrimSpace(f); f != "" {
			docIDs = append(docIDs, f)
		}
	}
	want := append(experimentIDs(), "all")
	if got, wantStr := strings.Join(docIDs, " "), strings.Join(want, " "); got != wantStr {
		t.Fatalf("doc comment enumeration out of sync with registry:\n  doc:      %s\n  registry: %s", got, wantStr)
	}
}
