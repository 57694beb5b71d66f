package flash

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// fusedOp matches arm64's fused multiply-add instructions in compiler
// assembly listings.
var fusedOp = regexp.MustCompile(`\b(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\b`)

// TestNoFusedMultiplyAdd compiles this package, internal/physics,
// internal/trace and internal/mathx for arm64 and fails on any fused
// multiply-add. A fused x*y+z rounds once where amd64 rounds twice, so
// a threshold voltage — and with it every sensed bit and golden digest
// — could differ between GOARCHes, and the lazy read kernel's noise add
// could round differently from the eager one; in the trace generator an
// arrival time or a Zipf rank could; in mathx a Gaussian draw
// (GaussFromHash), a fit or a percentile could. An explicit float64(x*y) conversion rounds the
// product on its own and blocks the fusion.
func TestNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles four packages for arm64")
	}
	gobin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(gobin); err != nil {
		if gobin, err = exec.LookPath("go"); err != nil {
			t.Skip("no go command available")
		}
	}
	cmd := exec.Command(gobin, "build", "-gcflags=-S",
		"sentinel3d/internal/flash", "sentinel3d/internal/physics", "sentinel3d/internal/trace",
		"sentinel3d/internal/mathx")
	cmd.Env = append(os.Environ(), "GOARCH=arm64", "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("arm64 build failed: %v\n%s", err, out)
	}
	var fused []string
	for _, line := range strings.Split(string(out), "\n") {
		if fusedOp.MatchString(line) {
			fused = append(fused, strings.TrimSpace(line))
		}
	}
	if len(fused) > 0 {
		t.Fatalf("%d fused multiply-adds in the arm64 build; wrap the product in float64():\n%s",
			len(fused), strings.Join(fused, "\n"))
	}
}
