package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunAllModels(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-model", "all", "-weeks", "2", "-l", "24", "-h", "4", "-deepepochs", "1", "-linepochs", "1"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	// An accuracy row starts with the model name in column one; the
	// distributional models' MAQE lines are indented.
	var rows []string
	for _, line := range strings.Split(stdout.String(), "\n") {
		if f := strings.Fields(line); len(f) == 6 && !strings.HasPrefix(line, " ") && f[0] != "Model" {
			rows = append(rows, f[0])
		}
	}
	want := []string{"OrgLinear", "Transformer", "Informer", "Autoformer", "FEDformer", "DLinear", "DeepAR"}
	if strings.Join(rows, " ") != strings.Join(want, " ") {
		t.Fatalf("accuracy rows %v, want %v\n%s", rows, want, stdout.String())
	}
}

func TestRunRejectsUnknownModel(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-model", "nope", "-weeks", "2", "-l", "24", "-h", "4"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), `unknown model "nope"`) {
		t.Fatalf("stderr %q does not name the model", stderr.String())
	}
}
