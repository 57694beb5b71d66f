package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// chaosGate is the injected shard stall: while on, every request on
// every shard pays the delay — queues back up exactly like a slow die.
type chaosGate struct {
	on    atomic.Bool
	delay time.Duration
}

func (g *chaosGate) stall(int) time.Duration {
	if g.on.Load() {
		return g.delay
	}
	return 0
}

// chaosObservation is one client-observed request.
type chaosObservation struct {
	status     int
	errCode    string
	wall       time.Duration
	deadlineMs float64
	forced     bool
	failFast   bool
}

// chaosClient posts one read and records what the server did.
func chaosRead(client *http.Client, base, tenant string, lpn int64, deadlineMs float64) chaosObservation {
	start := time.Now()
	body := strings.NewReader(
		`{"tenant":"` + tenant + `","lpn":` + itoa(lpn) + `,"deadline_ms":` + ftoa(deadlineMs) + `}`)
	resp, err := client.Post(base+"/read", "application/json", body)
	ob := chaosObservation{status: 0, wall: time.Since(start), deadlineMs: deadlineMs}
	if err != nil {
		return ob
	}
	defer resp.Body.Close()
	ob.status = resp.StatusCode
	if resp.StatusCode == http.StatusOK {
		var rr ReadResponse
		if json.NewDecoder(resp.Body).Decode(&rr) == nil {
			ob.forced = rr.ForcedPolicy
			for _, res := range rr.Results {
				ob.failFast = ob.failFast || res.FailFast
			}
		}
	} else {
		var eb errorBody
		_ = json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&eb)
		ob.errCode = eb.Error
	}
	ob.wall = time.Since(start)
	return ob
}

func itoa(v int64) string { return strconv.FormatInt(v, 10) }

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func readyzLevel(t *testing.T, base string) (int, bool) {
	t.Helper()
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rb readyzBody
	if err := json.NewDecoder(resp.Body).Decode(&rb); err != nil {
		t.Fatal(err)
	}
	if rb.Ready != (resp.StatusCode == http.StatusOK) {
		t.Fatalf("readyz status %d but body %+v", resp.StatusCode, rb)
	}
	return rb.DegradeLevel, rb.Ready
}

// TestChaosLadderAndDrain is the tentpole's robustness proof, run
// under -race by CI: with injected shard stalls and 5% corruption the
// ladder engages strictly in order (shed -> force-table -> fail-fast),
// /readyz reflects the state, no 200 is observed past deadline+grace
// (plus client slack), recovery steps back down to normal, and a
// shutdown mid-traffic drains without losing an in-flight request.
func TestChaosLadderAndDrain(t *testing.T) {
	gate := &chaosGate{delay: 30 * time.Millisecond}
	cfg := testConfig()
	cfg.Fleet.QueueDepth = 8
	cfg.Fleet.CorruptRate = 0.05
	cfg.Fleet.Stall = gate.stall
	cfg.Grace = 50 * time.Millisecond
	s := startServer(t, cfg)
	base := "http://" + s.Addr()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}

	// Phase A — normal service.
	if ob := chaosRead(client, base, "gold", 11, 500); ob.status != 200 {
		t.Fatalf("normal read: %+v", ob)
	}
	if lvl, ready := readyzLevel(t, base); !ready || lvl != LevelNormal {
		t.Fatalf("readyz before chaos: level %d ready %v", lvl, ready)
	}

	// Phase B — chaos: stall on, hammer from both tenants with short
	// deadlines. Every observation is collected for the deadline+grace
	// audit; the hammer runs until the ladder tops out.
	gate.on.Store(true)
	var (
		obsMu       sync.Mutex
		allObs      []chaosObservation
		stopped     atomic.Bool
		sawShed     atomic.Bool
		sawForced   atomic.Bool
		sawFailFast atomic.Bool
		wg          sync.WaitGroup
	)
	record := func(ob chaosObservation) {
		obsMu.Lock()
		allObs = append(allObs, ob)
		obsMu.Unlock()
	}
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int64(0); !stopped.Load(); i++ {
				tenant := "gold"
				if w%3 == 0 {
					tenant = "bronze"
				}
				ob := chaosRead(client, base, tenant, (int64(w)*131+i*17)%4096, 120)
				record(ob)
				if ob.errCode == "shed" && tenant == "bronze" {
					sawShed.Store(true)
				}
				if ob.forced {
					sawForced.Store(true)
				}
				if ob.failFast {
					sawFailFast.Store(true)
				}
			}
		}(w)
	}

	deadline := time.Now().Add(15 * time.Second)
	for s.Ladder().Level() < LevelFailFast && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if s.Ladder().Level() < LevelFailFast {
		stopped.Store(true)
		gate.on.Store(false)
		wg.Wait()
		t.Fatalf("ladder never topped out; transitions %+v", s.Ladder().Transitions())
	}
	if _, ready := readyzLevel(t, base); ready {
		t.Fatal("readyz still ready at fail-fast")
	}
	// Keep hammering briefly at the top so force-table and fail-fast
	// outcomes are observed.
	ffDeadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(ffDeadline) &&
		!(sawShed.Load() && sawForced.Load() && sawFailFast.Load()) {
		time.Sleep(20 * time.Millisecond)
	}

	// Phase C — recovery: stop the hammer, lift the stall; queues drain
	// and the ladder must walk back down to normal.
	stopped.Store(true)
	gate.on.Store(false)
	wg.Wait()
	recovery := time.Now().Add(15 * time.Second)
	for time.Now().Before(recovery) {
		if lvl, ready := readyzLevel(t, base); ready && lvl == LevelNormal {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if lvl, ready := readyzLevel(t, base); !ready || lvl != LevelNormal {
		t.Fatalf("no recovery: level %d ready %v, transitions %+v",
			lvl, ready, s.Ladder().Transitions())
	}

	// The ladder must have moved strictly one level at a time, climbing
	// 0->1->2->3 before descending back to 0.
	trans := s.Ladder().Transitions()
	level, peak := 0, 0
	for i, tr := range trans {
		if tr.From != level || abs(tr.To-tr.From) != 1 {
			t.Fatalf("transition %d skips or forks: %+v (all: %+v)", i, tr, trans)
		}
		level = tr.To
		if level > peak {
			peak = level
		}
	}
	if peak != LevelFailFast || level != LevelNormal {
		t.Fatalf("peak %d final %d, want peak 3 final 0 (%+v)", peak, level, trans)
	}
	if !sawShed.Load() {
		t.Error("bronze was never shed at level >= 1")
	}
	if !sawForced.Load() {
		t.Error("gold was never forced to the table policy at level >= 2")
	}
	if !sawFailFast.Load() {
		t.Error("no fail-fast outcome observed at level 3")
	}

	// Deadline+grace audit over every chaos-phase observation: a 200
	// must never arrive later than deadline + grace + client slack.
	const slack = 500 * time.Millisecond
	for _, ob := range allObs {
		limit := time.Duration(ob.deadlineMs*float64(time.Millisecond)) + cfg.Grace + slack
		if ob.status == 200 && ob.wall > limit {
			t.Fatalf("200 served past deadline+grace: %+v (limit %v)", ob, limit)
		}
	}

	// Phase D — drain under load: slow the device again (mild stall,
	// generous deadlines), launch in-flight reads, then Shutdown. Every
	// accepted request must complete; afterwards the listener is closed.
	gate.delay = 20 * time.Millisecond
	gate.on.Store(true)
	const inflight = 8
	results := make([]chaosObservation, inflight)
	var dwg sync.WaitGroup
	for i := 0; i < inflight; i++ {
		dwg.Add(1)
		go func(i int) {
			defer dwg.Done()
			results[i] = chaosRead(client, base, "gold", int64(i*70), 5000)
		}(i)
	}
	time.Sleep(30 * time.Millisecond) // let them reach the server
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	dwg.Wait()
	for i, ob := range results {
		if ob.status != 200 {
			t.Fatalf("in-flight request %d lost during drain: %+v", i, ob)
		}
	}
	if _, err := client.Post(base+"/read", "application/json",
		strings.NewReader(`{"tenant":"gold","lpn":1}`)); err == nil {
		t.Fatal("listener open after drain")
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
