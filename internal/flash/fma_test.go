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

// TestNoFusedMultiplyAdd compiles every internal package for arm64
// and fails on any fused multiply-add. A fused x*y+z rounds once where
// amd64 rounds twice, so a threshold voltage — and with it every sensed
// bit and golden digest — could differ between GOARCHes, and the lazy
// read kernel's noise add could round differently from the eager one;
// in the trace generator an arrival time or a Zipf rank could; in mathx
// a Gaussian draw (GaussFromHash), a fit or a percentile could; in
// ssdsim a page's sense, transfer or program time; in serve a bench
// report's percentile or a token bucket's refill; in sentinel a
// calibration step or an offset expansion. An explicit float64(x*y)
// conversion rounds the product on its own and blocks the fusion.
func TestNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles every internal package for arm64")
	}
	cmd := exec.Command(goCommand(t), "build", "-gcflags=-S", "sentinel3d/internal/...")
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

// goCommand returns the go command of the running toolchain, skipping
// the test when there is none.
func goCommand(t *testing.T) string {
	t.Helper()
	gobin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(gobin); err != nil {
		if gobin, err = exec.LookPath("go"); err != nil {
			t.Skip("no go command available")
		}
	}
	return gobin
}

// TestHotPathInlines builds internal/mathx and internal/trace with the
// compiler's inlining report and fails if a per-request draw or decode
// stops inlining: the value-typed stepper's (*Xoshiro).Uint64 and
// Float64 (the trace generator's block fill), (*Rand).Uint64, Float64
// and Intn (the replay's page draw) and (*BinarySource).Next, the
// budget the replay loops' devirtualized decode relies on. It also
// fails on any remaining call from the trace package into those draws.
// Each is a few instructions whose call overhead would rival its body;
// a reshaped body that crosses the budget shows here rather than as a
// replay slowdown.
func TestHotPathInlines(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles two packages with the inlining report")
	}
	gobin := goCommand(t)
	out, err := exec.Command(gobin, "build", "-gcflags=-m",
		"sentinel3d/internal/mathx", "sentinel3d/internal/trace").CombinedOutput()
	if err != nil {
		t.Fatalf("build failed: %v\n%s", err, out)
	}
	for _, fn := range []string{"(*Xoshiro).Uint64", "(*Xoshiro).Float64",
		"(*Rand).Uint64", "(*Rand).Float64", "(*Rand).Intn", "(*BinarySource).Next"} {
		if !strings.Contains(string(out), "can inline "+fn+"\n") {
			t.Errorf("%s no longer inlines", fn)
		}
	}
	asm, err := exec.Command(gobin, "build", "-gcflags=-S", "sentinel3d/internal/trace").CombinedOutput()
	if err != nil {
		t.Fatalf("build failed: %v\n%s", err, asm)
	}
	call := regexp.MustCompile(`CALL\s+sentinel3d/internal/mathx\.\(\*(Rand|Xoshiro)\)\.(Uint64|Float64|Intn)\(SB\)`)
	if m := call.FindAllString(string(asm), -1); len(m) > 0 {
		t.Errorf("internal/trace still calls the draws:\n%s", strings.Join(m, "\n"))
	}
}
