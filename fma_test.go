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
// source rounds twice. amd64 never fuses; arm64, ppc64le, s390x and
// riscv64 do. The placement, simulation, autoscale, pricing,
// workload-generation and experiment packages and the root package's
// collectors round every such product with an explicit float64
// conversion, so their scores, usage sums, metrics, capacity
// forecasts, generated workloads, demand panels and cost ledgers keep
// the same bits everywhere: compiled for each fusing architecture,
// they hold no fused instruction.
func TestPlacementHasNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles thirteen packages for four architectures")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	// Each architecture's double-precision fused mnemonics.
	for _, arch := range []struct {
		goarch string
		fused  *regexp.Regexp
	}{
		{"arm64", regexp.MustCompile(`\b(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\b`)},
		{"ppc64le", regexp.MustCompile(`\b(FMADD|FMSUB|FNMADD|FNMSUB)\b`)},
		{"s390x", regexp.MustCompile(`\b(FMADD|FMSUB|FNMADD|FNMSUB)\b`)},
		{"riscv64", regexp.MustCompile(`\b(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\b`)},
	} {
		t.Run(arch.goarch, func(t *testing.T) {
			cmd := exec.Command(goTool, "build", "-gcflags=-S", ".", "./internal/pts", "./internal/cluster",
				"./internal/baselines", "./internal/task", "./internal/sched", "./internal/sqa", "./internal/stats",
				"./internal/autoscale", "./internal/pricing", "./internal/trace", "./internal/org", "./internal/experiments")
			cmd.Env = append(os.Environ(), "GOARCH="+arch.goarch, "CGO_ENABLED=0")
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("%s build: %v\n%s", arch.goarch, err, out)
			}
			if !strings.Contains(string(out), "TEXT") {
				t.Fatalf("the %s build printed no assembly to check", arch.goarch)
			}
			for _, line := range strings.Split(string(out), "\n") {
				if arch.fused.MatchString(line) {
					t.Errorf("fused multiply-add: %s", strings.TrimSpace(line))
				}
			}
		})
	}
}
