package gfs_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestWorkflowTestNamesExist: every test or fuzz target a CI step
// selects by name is declared in the packages that step tests. Go's
// -run and -fuzz take patterns, and a pattern that matches nothing
// passes silently, so without this a rename quietly drops a test from
// the determinism gate or a target from fuzz-smoke.
func TestWorkflowTestNamesExist(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	selector := regexp.MustCompile(`-(run|fuzz) '([^']*)'`)
	declared := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)
	checked := map[string]int{}
	for _, cmd := range workflowCommands(string(data)) {
		sels := selector.FindAllStringSubmatch(cmd, -1)
		if len(sels) == 0 {
			continue
		}
		funcs := map[string]bool{}
		pkgs := 0
		for _, arg := range strings.Fields(cmd) {
			if arg != "." && !strings.HasPrefix(arg, "./") {
				continue
			}
			if strings.HasSuffix(arg, "...") {
				t.Fatalf("step %q selects tests by name over %s: list its packages instead", cmd, arg)
			}
			pkgs++
			files, err := filepath.Glob(filepath.Join(arg, "*_test.go"))
			if err != nil || len(files) == 0 {
				t.Fatalf("step %q tests %s, which has no test files (%v)", cmd, arg, err)
			}
			for _, file := range files {
				src, err := os.ReadFile(file)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range declared.FindAllStringSubmatch(string(src), -1) {
					funcs[m[1]] = true
				}
			}
		}
		if pkgs == 0 {
			t.Fatalf("step %q selects tests by name but names no package", cmd)
		}
		for _, sel := range sels {
			for _, name := range strings.Split(sel[2], "|") {
				name = strings.TrimSuffix(strings.TrimPrefix(name, "^"), "$")
				if !funcs[name] {
					t.Errorf("step %q selects %s, which its packages do not declare", cmd, name)
				}
				checked[sel[1]]++
			}
		}
	}
	if checked["run"] == 0 || checked["fuzz"] == 0 {
		t.Fatalf("found %d -run and %d -fuzz names in ci.yml; the parser has lost track of the workflow", checked["run"], checked["fuzz"])
	}
}

// workflowCommands returns the shell commands of every step's run:
// key — one per line of a literal (|) block, one per folded (>)
// block, which YAML joins into a single line.
func workflowCommands(yml string) []string {
	lines := strings.Split(yml, "\n")
	indent := func(s string) int { return len(s) - len(strings.TrimLeft(s, " ")) }
	var cmds []string
	for i := 0; i < len(lines); i++ {
		rest, ok := strings.CutPrefix(strings.TrimSpace(lines[i]), "run:")
		if !ok {
			continue
		}
		style := strings.TrimSpace(rest)
		if style != "|" && style != ">" {
			cmds = append(cmds, style)
			continue
		}
		var block []string
		for keyIndent := indent(lines[i]); i+1 < len(lines); i++ {
			next := lines[i+1]
			if strings.TrimSpace(next) != "" && indent(next) <= keyIndent {
				break
			}
			if line := strings.TrimSpace(next); line != "" {
				block = append(block, line)
			}
		}
		if style == ">" {
			block = []string{strings.Join(block, " ")}
		}
		cmds = append(cmds, block...)
	}
	return cmds
}
