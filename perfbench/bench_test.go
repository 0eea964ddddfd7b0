package main

import (
	"net/http"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exact/filter"
)

// exactCounts are the numbers a kernel operation must repeat exactly for
// a given input.
type exactCounts struct {
	filt          filter.Snapshot
	stats         core.Stats
	symbols       int
	containerSize int
	criticalPts   int
}

func kernelCounts(t *testing.T, k kernelWorkload, seed int64) (*subject, exactCounts) {
	t.Helper()
	s, err := k.setup(seed, nil)
	if err != nil {
		t.Fatalf("%s seed %d: setup: %v", k.name, seed, err)
	}
	r, err := s.op(nil)
	if err != nil {
		t.Fatalf("%s seed %d: operation failed its checks: %v", k.name, seed, err)
	}
	return s, exactCounts{r.filt, r.stats, r.ent.symbols, len(r.blob), len(s.cps)}
}

// TestKernelDeterminism: the same seed gives the same exact counts, and a
// second seed changes the input and still passes every check.
func TestKernelDeterminism(t *testing.T) {
	for _, k := range []kernelWorkload{nekST4, hurricaneNoSpec} {
		t.Run(k.name, func(t *testing.T) {
			s1, a := kernelCounts(t, k, 1)
			_, b := kernelCounts(t, k, 1)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("same seed, different counts:\n%+v\n%+v", a, b)
			}
			s2, _ := kernelCounts(t, k, 2)
			if reflect.DeepEqual(s1.orig.comps(), s2.orig.comps()) {
				t.Fatal("seeds 1 and 2 crop the same input")
			}
		})
	}
}

func TestRequestOrder(t *testing.T) {
	a, b, c := requestOrder(1), requestOrder(1), requestOrder(2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different request order")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 1 and 2 give the same request order")
	}
	var n [numKinds]int
	for _, k := range a[:serveBlock] {
		n[k]++
	}
	if n != serveMix {
		t.Fatalf("first block mixes %v, want %v", n, serveMix)
	}
}

// TestServerAccounting runs a short closed loop against an in-process
// daemon: every response passes its check, the client counts match the
// daemon's counters, and a client-side count the daemon did not see is
// reported as a mismatch.
func TestServerAccounting(t *testing.T) {
	s, err := newSubject(vfield{f2: datagen.Ocean(48, 40)}, serveSpec, nil)
	if err != nil {
		t.Fatal(err)
	}
	target, err := newServeTarget(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := startDaemon(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := d.stop(); err != nil {
			t.Error(err)
		}
	}()
	lr := d.load(target, requestOrder(3), serveClients, 0, 10, nil)
	if len(lr.reqs) != 10 {
		t.Fatalf("%d requests completed, want 10", len(lr.reqs))
	}
	for _, r := range lr.reqs {
		if r.err != nil {
			t.Fatal(r.err)
		}
	}
	if p := accounting(lr); len(p) != 0 {
		t.Fatalf("accounting mismatch on a clean run: %v", p)
	}
	if err := d.healthy(); err != nil {
		t.Fatal(err)
	}
	lr.reqs = append(lr.reqs, reqResult{kind: kindCompress, status: http.StatusTooManyRequests})
	if p := accounting(lr); len(p) != 2 {
		t.Fatalf("an unseen shed should break the request and shed counts, got %v", p)
	}
}

func TestBoundCheck(t *testing.T) {
	const tau = 10
	orig := [][]int64{{100, -5, 0}, {3, 40, 0}}
	cases := []struct {
		name      string
		spec      core.Speculation
		dec       [][]int64
		over, bad int
	}{
		{"within τ′", core.NoSpec, [][]int64{{110, -15, 10}, {-7, 30, -10}}, 0, 0},
		{"NoSpec beyond τ′, sign kept", core.NoSpec, [][]int64{{1, -5, 0}, {60, 40, 0}}, 2, 2},
		{"ST1 one past τ′", core.ST1, [][]int64{{100, 6, 0}, {3, 40, 0}}, 1, 1},
		{"ST2 within 2τ′", core.ST2, [][]int64{{120, -5, 0}, {3, 40, -20}}, 2, 0},
		{"ST2 beyond 2τ′", core.ST2, [][]int64{{121, -5, 0}, {3, 40, 0}}, 1, 1},
		{"ST4 within 8τ′", core.ST4, [][]int64{{100, -5, 80}, {3, 40, -80}}, 2, 0},
		{"ST4 beyond 8τ′", core.ST4, [][]int64{{100, -5, 81}, {3, 40, 0}}, 1, 1},
	}
	for _, c := range cases {
		over, bad := boundCheck(orig, c.dec, tau, c.spec)
		if over != c.over || bad != c.bad {
			t.Errorf("%s: over=%d bad=%d, want %d %d", c.name, over, bad, c.over, c.bad)
		}
	}
}

// TestCPUClock: the clock the kernel workloads time by advances with work
// and stands still while the process sleeps.
func TestCPUClock(t *testing.T) {
	c0 := cpuClock()
	time.Sleep(50 * time.Millisecond)
	slept := cpuClock() - c0

	c1, w1 := cpuClock(), time.Now()
	x := uint64(1)
	for time.Since(w1) < 50*time.Millisecond {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	worked := cpuClock() - c1
	if x == 0 || worked < 20*time.Millisecond || slept > 10*time.Millisecond {
		t.Fatalf("CPU clock: %v over 50ms of work, %v over a 50ms sleep", worked, slept)
	}
}
