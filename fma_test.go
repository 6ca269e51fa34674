package gfs_test

import (
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// TestPlacementHasNoFusedMultiplyAdd: the Go spec lets a compiler fuse
// x*y + z into one fused multiply-add, which rounds once where the
// source rounds twice. amd64 never fuses; arm64 does. The placement
// packages round every such product with an explicit float64
// conversion, so their scores and usage sums keep the same bits on
// both: compiled for arm64, they hold no fused instruction.
func TestPlacementHasNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles two packages for arm64")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	cmd := exec.Command(goTool, "build", "-gcflags=-S", "./internal/pts", "./internal/cluster")
	cmd.Env = append(os.Environ(), "GOARCH=arm64", "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("arm64 build: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "TEXT") {
		t.Fatal("the arm64 build printed no assembly to check")
	}
	fused := regexp.MustCompile(`\b(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\b`)
	for _, line := range strings.Split(string(out), "\n") {
		if fused.MatchString(line) {
			t.Errorf("fused multiply-add: %s", strings.TrimSpace(line))
		}
	}
}
