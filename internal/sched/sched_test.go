package sched

import (
	"testing"

	"anonmutex/internal/core"
	"anonmutex/internal/perm"
)

func TestConfigValidation(t *testing.T) {
	ok := Config{N: 2, M: 3, NewMachine: Alg1Factory(2, 3, core.Alg1Config{})}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no processes", func(c *Config) { c.N = 0 }},
		{"no registers", func(c *Config) { c.M = 0 }},
		{"no factory", func(c *Config) { c.NewMachine = nil }},
		{"negative sessions", func(c *Config) { c.Sessions = -1 }},
		{"negative cs ticks", func(c *Config) { c.CSTicks = -1 }},
		{"cycles with honest snapshots", func(c *Config) { c.DetectCycles = true; c.HonestSnapshots = true }},
		{"cycles with random policy", func(c *Config) { c.DetectCycles = true; c.Policy = NewRandom(1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ok
			tc.mutate(&cfg)
			if _, err := New(cfg); err == nil {
				t.Error("expected config error")
			}
		})
	}
	if _, err := New(ok); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// assertCorrectRun runs cfg and asserts completion without ME violations.
func assertCorrectRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) > 0 {
		t.Fatalf("mutual exclusion violated: %v", res.Violations[0])
	}
	if !res.Completed {
		t.Fatalf("run did not complete within %d steps (entries so far: %d)", res.Steps, res.Entries)
	}
	sessions := cfg.Sessions
	if sessions == 0 {
		sessions = 1
	}
	if want := cfg.N * sessions; res.Entries != want {
		t.Fatalf("entries = %d, want %d", res.Entries, want)
	}
	for i, ps := range res.PerProc {
		if ps.Sessions != sessions {
			t.Errorf("process %d completed %d sessions, want %d", i, ps.Sessions, sessions)
		}
	}
	for x, v := range res.FinalValues {
		if !v.IsNone() {
			t.Errorf("register %d = %v after completion, want ⊥", x, v)
		}
	}
	return res
}

func TestAlg1RoundRobinCompletes(t *testing.T) {
	res := assertCorrectRun(t, Config{
		N: 2, M: 3,
		NewMachine: Alg1Factory(2, 3, core.Alg1Config{}),
		Sessions:   3,
	})
	// Algorithm 1's entry requires owning all m registers.
	for i, ps := range res.PerProc {
		if ps.OwnedAtEntry != 3 {
			t.Errorf("process %d entered owning %d registers, want all 3", i, ps.OwnedAtEntry)
		}
	}
}

func TestAlg1ManyConfigurations(t *testing.T) {
	cases := []struct{ n, m int }{
		{2, 3}, {2, 5}, {3, 5}, {4, 5}, {3, 7}, {4, 7}, {6, 7}, {4, 25},
	}
	for _, tc := range cases {
		res, err := Run(Config{
			N: tc.n, M: tc.m,
			NewMachine: Alg1Factory(tc.n, tc.m, core.Alg1Config{}),
			Sessions:   2,
			Policy:     NewRandom(uint64(tc.n*100 + tc.m)),
			MaxSteps:   5_000_000,
		})
		if err != nil {
			t.Fatalf("n=%d m=%d: %v", tc.n, tc.m, err)
		}
		if len(res.Violations) > 0 {
			t.Fatalf("n=%d m=%d: ME violated: %v", tc.n, tc.m, res.Violations[0])
		}
		if !res.Completed {
			t.Fatalf("n=%d m=%d: did not complete (%d steps, %d entries)", tc.n, tc.m, res.Steps, res.Entries)
		}
	}
}

func TestAlg1RandomSchedulesManySeeds(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		res, err := Run(Config{
			N: 3, M: 5,
			NewMachine: Alg1Factory(3, 5, core.Alg1Config{}),
			Sessions:   2,
			Policy:     NewRandom(seed),
			CSTicks:    int(seed % 4),
			MaxSteps:   2_000_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) > 0 {
			t.Fatalf("seed %d: ME violated: %v", seed, res.Violations[0])
		}
		if !res.Completed {
			t.Fatalf("seed %d: incomplete after %d steps", seed, res.Steps)
		}
	}
}

func TestAlg1HonestSnapshots(t *testing.T) {
	for seed := uint64(1); seed <= 15; seed++ {
		res, err := Run(Config{
			N: 2, M: 3,
			NewMachine:      Alg1Factory(2, 3, core.Alg1Config{}),
			Sessions:        2,
			Policy:          NewRandom(seed),
			HonestSnapshots: true,
			MaxSteps:        2_000_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) > 0 {
			t.Fatalf("seed %d: ME violated with honest double-scan snapshots", seed)
		}
		if !res.Completed {
			t.Fatalf("seed %d: incomplete with honest snapshots (%d steps)", seed, res.Steps)
		}
	}
}

func TestAlg1UnderRandomPermutations(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		res, err := Run(Config{
			N: 3, M: 5,
			NewMachine: Alg1Factory(3, 5, core.Alg1Config{}),
			Adversary:  perm.RandomAdversary{Seed: seed},
			Policy:     NewRandom(seed * 7),
			Sessions:   2,
			MaxSteps:   2_000_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) > 0 || !res.Completed {
			t.Fatalf("seed %d: violations=%d completed=%v", seed, len(res.Violations), res.Completed)
		}
	}
}

func TestAlg2RoundRobinCompletes(t *testing.T) {
	res := assertCorrectRun(t, Config{
		N: 2, M: 3,
		NewMachine: Alg2Factory(2, 3, core.Alg2Config{}),
		Sessions:   3,
	})
	for i, ps := range res.PerProc {
		if 2*ps.OwnedAtEntry <= 3 {
			t.Errorf("process %d entered owning %d of 3 registers — not a majority", i, ps.OwnedAtEntry)
		}
	}
}

func TestAlg2SingleRegister(t *testing.T) {
	assertCorrectRun(t, Config{
		N: 4, M: 1,
		NewMachine: Alg2Factory(4, 1, core.Alg2Config{}),
		Sessions:   3,
		Policy:     NewRandom(11),
	})
}

func TestAlg2ManyConfigurations(t *testing.T) {
	cases := []struct{ n, m int }{
		{2, 1}, {2, 3}, {2, 5}, {3, 5}, {4, 5}, {3, 7}, {6, 7}, {4, 25},
	}
	for _, tc := range cases {
		res, err := Run(Config{
			N: tc.n, M: tc.m,
			NewMachine: Alg2Factory(tc.n, tc.m, core.Alg2Config{}),
			Sessions:   2,
			Policy:     NewRandom(uint64(tc.n*1000 + tc.m)),
			MaxSteps:   5_000_000,
		})
		if err != nil {
			t.Fatalf("n=%d m=%d: %v", tc.n, tc.m, err)
		}
		if len(res.Violations) > 0 {
			t.Fatalf("n=%d m=%d: ME violated", tc.n, tc.m)
		}
		if !res.Completed {
			t.Fatalf("n=%d m=%d: incomplete (%d steps)", tc.n, tc.m, res.Steps)
		}
	}
}

func TestAlg2RandomPermutationsAndStalls(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		res, err := Run(Config{
			N: 3, M: 5,
			NewMachine: Alg2Factory(3, 5, core.Alg2Config{}),
			Adversary:  perm.RandomAdversary{Seed: seed},
			Policy:     &Stall{Inner: NewRandom(seed), Proc: int(seed % 3), From: 20, For: 200},
			Sessions:   2,
			MaxSteps:   2_000_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) > 0 || !res.Completed {
			t.Fatalf("seed %d: violations=%d completed=%v steps=%d", seed, len(res.Violations), res.Completed, res.Steps)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	cfg := Config{
		N: 3, M: 5,
		NewMachine: Alg1Factory(3, 5, core.Alg1Config{}),
		Policy:     NewRandom(99),
		Sessions:   2,
		IDSeed:     7,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Policy = NewRandom(99) // fresh policy, same seed
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Steps != b.Steps || a.Entries != b.Entries || a.MemWrites != b.MemWrites {
		t.Fatalf("replay diverged: (%d,%d,%d) vs (%d,%d,%d)",
			a.Steps, a.Entries, a.MemWrites, b.Steps, b.Entries, b.MemWrites)
	}
}

// TestStepIsRun: driving a runner one Step at a time ends where Run
// ends, Result grows step by step, and a finished runner steps no more.
func TestStepIsRun(t *testing.T) {
	cfg := func() Config {
		return Config{
			N: 2, M: 4,
			NewMachine:   Alg2UncheckedFactory(4, core.Alg2Config{}),
			Adversary:    perm.RotationAdversary{Step: 2},
			Policy:       NewLockStep(2),
			DetectCycles: true,
		}
	}
	want, err := Run(cfg())
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	for steps := 1; ; steps++ {
		more, err := r.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
		if got := r.Result().Steps; got != steps {
			t.Fatalf("Result().Steps = %d after %d steps", got, steps)
		}
	}
	got := r.Result()
	if !want.CycleDetected || got.CycleDetected != want.CycleDetected || got.Steps != want.Steps ||
		got.CycleStart != want.CycleStart || got.MemWrites != want.MemWrites {
		t.Fatalf("stepped run %+v, Run %+v", got, want)
	}
	if more, err := r.Step(); more || err != nil || r.Result().Steps != want.Steps {
		t.Fatalf("Step after the end = %v, %v; steps %d", more, err, r.Result().Steps)
	}
}

func TestShuffledIdentities(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		assertCorrectRun(t, Config{
			N: 3, M: 5,
			NewMachine: Alg1Factory(3, 5, core.Alg1Config{}),
			Sessions:   2,
			IDSeed:     seed,
		})
	}
}

func TestCSTicksHoldTheLock(t *testing.T) {
	res := assertCorrectRun(t, Config{
		N: 2, M: 3,
		NewMachine: Alg2Factory(2, 3, core.Alg2Config{}),
		Sessions:   2,
		CSTicks:    10,
		Policy:     NewRandom(3),
	})
	if res.Steps < 2*2*10 {
		t.Errorf("run of %d steps too short to have held the CS for the configured ticks", res.Steps)
	}
}

func TestTraceRecording(t *testing.T) {
	res, err := Run(Config{
		N: 2, M: 3,
		NewMachine: Alg1Factory(2, 3, core.Alg1Config{}),
		Sessions:   1,
		TraceCap:   10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.Len() == 0 {
		t.Fatal("no events recorded")
	}
	// The trace must contain exactly N lock-start, N enter, N unlock-done.
	counts := map[string]int{}
	for _, e := range res.Trace.Events {
		counts[e.Kind.String()]++
	}
	for _, kind := range []string{"lock-start", "enter-cs", "unlock-done"} {
		if counts[kind] != 2 {
			t.Errorf("%s events = %d, want 2 (trace: %v)", kind, counts[kind], counts)
		}
	}
}

// TestAlg1LockStepWedge is the Theorem 5 construction applied to
// Algorithm 1 on an illegal memory size: n=2 processes on m=4 registers
// (gcd(2,4)=2) with rotation-by-2 permutations, running in lock step. The
// execution reaches a 2-2 ownership split from which no process can ever
// withdraw (each owns exactly the average), so the deterministic system
// cycles — a proven livelock.
func TestAlg1LockStepWedge(t *testing.T) {
	res, err := Run(Config{
		N: 2, M: 4,
		NewMachine:   Alg1UncheckedFactory(4, core.Alg1Config{}),
		Adversary:    perm.RotationAdversary{Step: 2},
		Policy:       NewLockStep(2),
		DetectCycles: true,
		MaxSteps:     100_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CycleDetected {
		t.Fatalf("no livelock cycle detected (completed=%v entries=%d steps=%d)", res.Completed, res.Entries, res.Steps)
	}
	if res.Entries != 0 {
		t.Fatalf("processes entered the CS %d times in the wedge", res.Entries)
	}
}

// TestAlg2LockStepWedge: same construction for Algorithm 2 on m=2.
func TestAlg2LockStepWedge(t *testing.T) {
	res, err := Run(Config{
		N: 2, M: 2,
		NewMachine:   Alg2UncheckedFactory(2, core.Alg2Config{}),
		Adversary:    perm.RotationAdversary{Step: 1},
		Policy:       NewLockStep(2),
		DetectCycles: true,
		MaxSteps:     100_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CycleDetected {
		t.Fatalf("no livelock cycle detected (completed=%v entries=%d)", res.Completed, res.Entries)
	}
	if res.Entries != 0 {
		t.Fatal("processes entered the CS in the wedge")
	}
}

// TestAlg2LockStepLegalSizeProgresses: with m ∈ M(n) the same lock-step
// adversary cannot wedge the system — ownership cannot split evenly, so
// somebody resigns and somebody wins.
func TestAlg2LockStepLegalSizeProgresses(t *testing.T) {
	res, err := Run(Config{
		N: 2, M: 3,
		NewMachine:   Alg2Factory(2, 3, core.Alg2Config{}),
		Adversary:    perm.RotationAdversary{Step: 1},
		Policy:       NewLockStep(2),
		DetectCycles: true,
		MaxSteps:     1_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CycleDetected && res.Entries == 0 {
		t.Fatalf("legal size wedged under lock step at step %d", res.CycleStep)
	}
	if res.Entries == 0 {
		t.Fatal("no CS entries under lock step with a legal size")
	}
}

func TestAlg1CycleDetectionPassesOnLegalSize(t *testing.T) {
	// Sanity: cycle detection on a correct configuration must not fire
	// before completion.
	res, err := Run(Config{
		N: 2, M: 3,
		NewMachine:   Alg1Factory(2, 3, core.Alg1Config{}),
		Policy:       &RoundRobin{},
		Sessions:     2,
		DetectCycles: true,
		MaxSteps:     1_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CycleDetected {
		t.Fatalf("spurious livelock verdict on a correct configuration at step %d", res.CycleStep)
	}
	if !res.Completed {
		t.Fatal("run incomplete")
	}
}

func TestAblationTieBreakNeverWedges(t *testing.T) {
	// Without the average rule, two lock-step processes with rotated
	// permutations on a LEGAL size (m=3 ∈ M(2)) reach a 2-1 split: the
	// below-average process never withdraws, the leader can never absorb
	// its registers — livelock even though m ∈ M(n). The withdrawal rule,
	// not just the memory size, carries deadlock-freedom.
	res, err := Run(Config{
		N: 2, M: 3,
		NewMachine:   Alg1UncheckedFactory(3, core.Alg1Config{Tie: TieBreakNeverForTest()}),
		Adversary:    perm.RotationAdversary{Step: 1},
		Policy:       NewLockStep(2),
		DetectCycles: true,
		MaxSteps:     100_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CycleDetected || res.Entries != 0 {
		t.Fatalf("expected wedge without tie-break rule: cycle=%v entries=%d", res.CycleDetected, res.Entries)
	}
}

// TieBreakNeverForTest exposes the ablation constant without importing
// core's internals in test tables.
func TieBreakNeverForTest() core.TieBreak { return core.TieBreakNever }

// TestCSTicksFor: the per-session hook must be called once per CS entry
// with in-order 0-based session indexes, and its values must actually
// pace the critical sections (more ticks, more steps).
func TestCSTicksFor(t *testing.T) {
	calls := make(map[int][]int)
	cfg := Config{
		N: 2, M: 3,
		NewMachine: Alg1Factory(2, 3, core.Alg1Config{}),
		Sessions:   3,
		CSTicksFor: func(proc, session int) int {
			calls[proc] = append(calls[proc], session)
			return 2 * session // sessions get longer as they go
		},
	}
	res := assertCorrectRun(t, cfg)
	for proc, sessions := range calls {
		if len(sessions) != 3 {
			t.Errorf("process %d: hook called %d times, want 3", proc, len(sessions))
		}
		for i, s := range sessions {
			if s != i {
				t.Errorf("process %d: call %d carried session %d", proc, i, s)
			}
		}
	}
	flat := assertCorrectRun(t, Config{
		N: 2, M: 3,
		NewMachine: Alg1Factory(2, 3, core.Alg1Config{}),
		Sessions:   3,
	})
	if res.Steps <= flat.Steps {
		t.Errorf("per-session ticks (%d steps) should exceed zero-tick runs (%d steps)", res.Steps, flat.Steps)
	}
}
