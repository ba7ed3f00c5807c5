package loadgen

import (
	"strings"
	"testing"
	"time"

	"anonmutex"
	"anonmutex/internal/lockmgr"
	"anonmutex/internal/workload"
)

func managerConfig(t *testing.T, mcfg lockmgr.Config, cfg Config) (Config, *lockmgr.Manager) {
	t.Helper()
	mgr, err := lockmgr.New(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.NewLocker = func(int) (Locker, error) { return NewManagerLocker(mgr), nil }
	return cfg, mgr
}

// TestRunCyclesProfiles runs the closed loop over the stock traffic
// shapes — uniform, the bursty session profile, and a one-key hotset
// taking 80% of the traffic — on Algorithm 2 with twice as many clients
// as handles, and once on Algorithm 1 with 8 clients on 3 handles: the
// lease pool multiplexes the overflow under either algorithm.
func TestRunCyclesProfiles(t *testing.T) {
	for _, tc := range []struct {
		name             string
		alg              anonmutex.Algorithm
		clients, handles int
		spec             workload.Spec
	}{
		{"uniform", anonmutex.RMW, 4, 2, workload.Spec{}},
		{"bursty", anonmutex.RMW, 4, 2, workload.Spec{Profile: "bursty"}},
		{"skewed", anonmutex.RMW, 4, 2, workload.Spec{Keys: workload.KeySpec{Dist: workload.KeyHotset, HotKeys: 1, HotFrac: 0.8}}},
		{"alg1-8-on-3", anonmutex.RW, 8, 3, workload.Spec{Keys: workload.KeySpec{Dist: workload.KeyHotset, HotKeys: 1, HotFrac: 0.8}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, mgr := managerConfig(t,
				lockmgr.Config{Shards: 2, Algorithm: tc.alg, HandlesPerLock: tc.handles},
				Config{Clients: tc.clients, Keys: 4, Cycles: 120, Workload: &tc.spec, Seed: 7})
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Cycles != 120 {
				t.Errorf("cycles = %d, want 120", res.Cycles)
			}
			if res.Violations != 0 {
				t.Errorf("violations = %d", res.Violations)
			}
			if mgr.Violations() != 0 {
				t.Errorf("manager violations = %d", mgr.Violations())
			}
			if res.Throughput <= 0 {
				t.Errorf("throughput = %v", res.Throughput)
			}
			if res.LatencyP50 > res.LatencyP99 || res.LatencyP99 > res.LatencyMax {
				t.Errorf("latency percentiles out of order: %+v", res)
			}
			if res.Arrival != workload.ArrivalClosed {
				t.Errorf("%s resolved to arrival %q", tc.name, res.Arrival)
			}
			if err := mgr.Close(); err != nil {
				t.Errorf("manager close: %v", err)
			}
		})
	}
}

func TestRunWorkloadSpec(t *testing.T) {
	// A full spec: zipf keys, a mixed op set, closed loop.
	spec := workload.Spec{
		Seed: 9,
		Keys: workload.KeySpec{Dist: workload.KeyZipf, ZipfS: 1.2},
		Ops:  workload.OpMix{Lock: 0.6, Try: 0.2, Timed: 0.2, TimeoutMS: 50},
	}
	cfg, mgr := managerConfig(t,
		lockmgr.Config{Shards: 2, HandlesPerLock: 2},
		Config{Clients: 4, Keys: 8, Cycles: 200, Workload: &spec})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	if res.Violations != 0 || mgr.Violations() != 0 {
		t.Errorf("violations = %d/%d", res.Violations, mgr.Violations())
	}
	if res.KeyDist != workload.KeyZipf {
		t.Errorf("key dist = %q", res.KeyDist)
	}
	// Attempts are conserved: every allocated attempt completed, aborted,
	// or missed.
	if got := res.Cycles + res.Aborts + res.TryMisses; got != 200 {
		t.Errorf("cycles+aborts+misses = %d, want 200", got)
	}
}

func TestRunDuration(t *testing.T) {
	cfg, _ := managerConfig(t,
		lockmgr.Config{HandlesPerLock: 2},
		Config{Clients: 2, Keys: 2, Duration: 50 * time.Millisecond})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Error("no cycles completed in a 50ms run")
	}
	if res.Violations != 0 {
		t.Errorf("violations = %d", res.Violations)
	}
}

func TestResultTable(t *testing.T) {
	res := &Result{Backend: "inproc", Clients: 2, Keys: 2,
		Profile: "uniform", KeyDist: "uniform", Arrival: "closed", Cycles: 10}
	tbl := res.Table()
	if len(tbl.Rows) != 1 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if !strings.Contains(tbl.String(), "owner check") {
		t.Error("table missing the owner-check note")
	}
}

func TestConfigErrors(t *testing.T) {
	lockerless := func(c Config) Config { return c }
	withLocker := func(c Config) Config {
		c.NewLocker = func(int) (Locker, error) { return NewManagerLocker(nil), nil }
		return c
	}
	cases := []Config{
		lockerless(Config{Cycles: 1}), // missing NewLocker
		withLocker(Config{}),          // neither Cycles nor Duration
		withLocker(Config{Cycles: 1, Clients: -1}),
		withLocker(Config{Cycles: 1, Keys: -1}),
		withLocker(Config{Cycles: -1}),
		// An invalid spec fails loudly.
		withLocker(Config{Cycles: 1, Workload: &workload.Spec{Profile: "pareto"}}),
		withLocker(Config{Cycles: 1, Workload: &workload.Spec{Keys: workload.KeySpec{Dist: "pareto"}}}),
	}
	for i, cfg := range cases {
		if _, err := Run(cfg); err == nil {
			t.Errorf("Run(case %d) succeeded", i)
		}
	}
}

// TestOpMixNeedsCapableBackend: a spec with try ops over a backend
// without TryAcquire must fail loudly.
func TestOpMixNeedsCapableBackend(t *testing.T) {
	_, err := Run(Config{
		Clients: 1, Keys: 1, Cycles: 1,
		Workload:  &workload.Spec{Ops: workload.OpMix{Try: 1}},
		NewLocker: func(int) (Locker, error) { return plainLocker{}, nil },
	})
	if err == nil || !strings.Contains(err.Error(), "TryAcquire") {
		t.Fatalf("try mix over a try-less backend: err = %v", err)
	}
}

func TestManagerLockerSessionErrors(t *testing.T) {
	mgr, err := lockmgr.New(lockmgr.Config{HandlesPerLock: 2})
	if err != nil {
		t.Fatal(err)
	}
	lk := NewManagerLocker(mgr)
	if err := lk.Acquire("k"); err != nil {
		t.Fatal(err)
	}
	if err := lk.Acquire("k"); err == nil {
		t.Error("re-acquire in one session succeeded")
	}
	if held, _ := lk.Holds("k"); !held {
		t.Error("Holds = false for a held name")
	}
	if _, err := lk.TryAcquire("k"); err == nil {
		t.Error("try re-acquire in one session succeeded")
	}
	if err := lk.Release("nope"); err == nil {
		t.Error("release of unheld name succeeded")
	}
	// A try probe on a busy lock misses without error.
	other := NewManagerLocker(mgr)
	if ok, err := other.TryAcquire("k"); err != nil || ok {
		t.Errorf("TryAcquire on a held lock = (%v, %v), want (false, nil)", ok, err)
	}
	// Close releases the leftover grant, so the manager can shut down.
	if err := lk.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
}
