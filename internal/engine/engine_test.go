package engine

import (
	"context"
	"fmt"
	"testing"
	"time"

	"anonmutex/internal/amem"
	"anonmutex/internal/core"
	"anonmutex/internal/id"
	"anonmutex/internal/perm"
	"anonmutex/internal/vmem"
	"anonmutex/internal/xrand"
)

func newHardware(t *testing.T, m int) (*amem.Memory, func() Executor) {
	t.Helper()
	mem := amem.New(m)
	gen := id.NewGenerator()
	return mem, func() Executor {
		me, err := gen.New()
		if err != nil {
			t.Fatal(err)
		}
		v, err := mem.NewView(me, perm.Identity(m))
		if err != nil {
			t.Fatal(err)
		}
		return Hardware(v)
	}
}

func TestExecDispatch(t *testing.T) {
	const m = 3
	_, next := newHardware(t, m)
	x := next()
	me := x.(*amem.View).Me()

	res, _, err := Exec(x, core.Op{Kind: core.OpWrite, X: 1, Val: me}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err = Exec(x, core.Op{Kind: core.OpRead, X: 1}, nil)
	if err != nil || !res.Val.Equal(me) {
		t.Fatalf("read back %v (err %v), want %v", res.Val, err, me)
	}
	res, _, err = Exec(x, core.Op{Kind: core.OpCAS, X: 1, Old: me, New: id.None}, nil)
	if err != nil || !res.Swapped {
		t.Fatalf("cas: swapped=%v err=%v, want true", res.Swapped, err)
	}
	buf := make([]id.ID, 0, m)
	res, buf, err = Exec(x, core.Op{Kind: core.OpSnapshot}, buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Snap) != m || !res.Snap[1].IsNone() {
		t.Fatalf("snapshot %v, want all ⊥", res.Snap)
	}
	if _, _, err := Exec(x, core.Op{Kind: core.OpKind(99)}, nil); err == nil {
		t.Fatal("unknown op kind accepted")
	}
}

func TestSimulatedExecutorMatchesView(t *testing.T) {
	const m = 5
	mem := vmem.New(m, true)
	gen := id.NewGenerator()
	me, _ := gen.New()
	v, err := mem.NewView(me, perm.Rotation(m, 2))
	if err != nil {
		t.Fatal(err)
	}
	x := Simulated(v)
	if x.Size() != m {
		t.Fatalf("Size() = %d, want %d", x.Size(), m)
	}
	x.Write(0, me)
	if got := x.Read(0); !got.Equal(me) {
		t.Fatalf("read back %v, want %v", got, me)
	}
	// Rotation by 2: local 0 is physical 2.
	if got := mem.Observe(2).Val; !got.Equal(me) {
		t.Fatalf("physical 2 holds %v, want %v", got, me)
	}
	snap := x.Snapshot(nil)
	if len(snap) != m || !snap[0].Equal(me) {
		t.Fatalf("snapshot %v, want %v at local 0", snap, me)
	}
	if !x.CompareAndSwap(0, me, id.None) {
		t.Fatal("CAS with correct comparand failed")
	}
	if x.CompareAndSwap(0, me, id.None) {
		t.Fatal("CAS with stale comparand succeeded")
	}
}

// driveSolo runs `sessions` full lock/unlock cycles on a fresh driver.
func driveSolo(t *testing.T, d *Driver, sessions int) {
	t.Helper()
	for s := 0; s < sessions; s++ {
		if st, err := d.DriveAll(); err != nil || st != core.StatusInCS {
			t.Fatalf("lock: status %v, err %v", st, err)
		}
		if st, err := d.DriveAll(); err != nil || st != core.StatusIdle {
			t.Fatalf("unlock: status %v, err %v", st, err)
		}
	}
}

func TestDriverSoloBothAlgorithmsBothSubstrates(t *testing.T) {
	const n, m = 2, 3
	gen := id.NewGenerator()
	me, _ := gen.New()

	build := func(alg string) []core.Machine {
		a1, err := core.NewAlg1(me, n, m, core.Alg1Config{Choice: core.ChooseFirstBottom})
		if err != nil {
			t.Fatal(err)
		}
		a2, err := core.NewAlg2(me, n, m, core.Alg2Config{})
		if err != nil {
			t.Fatal(err)
		}
		if alg == "rw" {
			return []core.Machine{a1}
		}
		return []core.Machine{a2}
	}
	for _, alg := range []string{"rw", "rmw"} {
		hw := amem.New(m)
		hv, err := hw.NewView(me, perm.Identity(m))
		if err != nil {
			t.Fatal(err)
		}
		sm := vmem.New(m, true)
		sv, err := sm.NewView(me, perm.Identity(m))
		if err != nil {
			t.Fatal(err)
		}
		driveSolo(t, NewDriver(build(alg)[0], Hardware(hv)), 3)
		driveSolo(t, NewDriver(build(alg)[0], Simulated(sv)), 3)
	}
}

// TestDriverZeroAllocs verifies the engine's hot-path guarantee: once the
// driver exists, a full lock/unlock session performs zero allocations per
// operation — for both algorithms, including Algorithm 1's default
// random-claim policy.
func TestDriverZeroAllocs(t *testing.T) {
	const n, m = 2, 3
	gen := id.NewGenerator()
	me, _ := gen.New()

	cases := []struct {
		name string
		mk   func() core.Machine
	}{
		{"alg1-first-bottom", func() core.Machine {
			a, err := core.NewAlg1(me, n, m, core.Alg1Config{Choice: core.ChooseFirstBottom})
			if err != nil {
				t.Fatal(err)
			}
			return a
		}},
		{"alg1-random-claims", func() core.Machine {
			a, err := core.NewAlg1(me, n, m, core.Alg1Config{Choice: core.ChooseRandomBottom, Rand: xrand.New(7)})
			if err != nil {
				t.Fatal(err)
			}
			return a
		}},
		{"alg2", func() core.Machine {
			a, err := core.NewAlg2(me, n, m, core.Alg2Config{})
			if err != nil {
				t.Fatal(err)
			}
			return a
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mem := amem.New(m)
			v, err := mem.NewView(me, perm.Identity(m))
			if err != nil {
				t.Fatal(err)
			}
			d := NewDriver(tc.mk(), Hardware(v))
			driveSolo(t, d, 1) // warm up: lazily sized buffers settle
			allocs := testing.AllocsPerRun(100, func() {
				if _, err := d.DriveAll(); err != nil {
					t.Fatal(err)
				}
				if _, err := d.DriveAll(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("%.1f allocs per lock/unlock session, want 0", allocs)
			}
		})
	}

	// The service configuration through the service's two entry paths:
	// TryLock's bounded attempt and a cancellable LockCtx, each followed
	// by the unlock's Drive.
	const sn, sm = 8, 11
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	entries := []struct {
		name  string
		enter func(d *Driver) error
	}{
		{"TryDriveBounded", func(d *Driver) error {
			if ok, err := d.TryDriveBounded(2*sm + 2); err != nil || !ok {
				return fmt.Errorf("solo TryDriveBounded = %v, %v", ok, err)
			}
			return nil
		}},
		{"DriveContext", func(d *Driver) error { return d.DriveContext(ctx) }},
	}
	for _, e := range entries {
		t.Run(fmt.Sprintf("alg2-n=%d-m=%d/%s", sn, sm, e.name), func(t *testing.T) {
			mem := amem.New(sm)
			v, err := mem.NewView(me, perm.Identity(sm))
			if err != nil {
				t.Fatal(err)
			}
			a, err := core.NewAlg2(me, sn, sm, core.Alg2Config{SoloFastPath: true})
			if err != nil {
				t.Fatal(err)
			}
			d := NewDriver(a, Hardware(v))
			allocs := testing.AllocsPerRun(100, func() {
				if err := a.StartLock(); err != nil {
					t.Fatal(err)
				}
				if err := e.enter(d); err != nil {
					t.Fatal(err)
				}
				if err := a.StartUnlock(); err != nil {
					t.Fatal(err)
				}
				if err := d.Drive(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("%.1f allocs per lock/unlock session, want 0", allocs)
			}
		})
	}
}

// spinMachine is a fake machine that requests `total` reads of register 0
// before completing its lock invocation — a pure wait loop, for exercising
// the backoff escalation deterministically.
type spinMachine struct {
	me     id.ID
	status core.Status
	left   int
	total  int
	abort  bool
}

func (s *spinMachine) Me() id.ID           { return s.me }
func (s *spinMachine) Status() core.Status { return s.status }
func (s *spinMachine) StartLock() error {
	s.status = core.StatusRunning
	s.left = s.total
	return nil
}
func (s *spinMachine) StartUnlock() error { s.status = core.StatusIdle; return nil }
func (s *spinMachine) StartAbort() error {
	if s.status != core.StatusRunning {
		return fmt.Errorf("spinMachine: StartAbort in status %v", s.status)
	}
	s.left = 1 // one final op completes the back-out
	s.abort = true
	return nil
}
func (s *spinMachine) PendingOp() core.Op                       { return core.Op{Kind: core.OpRead, X: 0} }
func (s *spinMachine) SweepCAS(core.CASMemory, int) (int, bool) { return 0, false }
func (s *spinMachine) SweepRead(core.ReadMemory, int) int       { return 0 }
func (s *spinMachine) Absent() bool                             { return false }
func (s *spinMachine) Advance(core.OpResult) core.Status {
	s.left--
	if s.left <= 0 {
		if s.abort {
			s.abort = false
			s.status = core.StatusIdle
		} else {
			s.status = core.StatusInCS
		}
	}
	return s.status
}
func (s *spinMachine) Line() int                     { return 0 }
func (s *spinMachine) LockSteps() int                { return s.total - s.left }
func (s *spinMachine) OwnedAtEntry() int             { return 0 }
func (s *spinMachine) AppendState(dst []byte) []byte { return dst }
func (s *spinMachine) Clone() core.Machine           { c := *s; return &c }

// TestDriverBackoffEscalation pins spin → park: SpinOps ops spin, then
// the first step without progress registers a park, which re-runs the
// wait's pass (two steps for a waiter that may hold registers) before
// every block, and stays registered when the cap ends a block. On the
// simulated memory a block returns at once, so the op count is exact.
func TestDriverBackoffEscalation(t *testing.T) {
	const m = 1
	mem := vmem.New(m, false)
	gen := id.NewGenerator()
	me, _ := gen.New()
	v, err := mem.NewView(me, perm.Identity(m))
	if err != nil {
		t.Fatal(err)
	}
	// Ops 1–4 spin; op 5 passes SpinOps and registers; the park blocks
	// after re-running ops 6–7, 8–9 and 10–11, and the re-run of 12–13
	// completes the invocation, which is not followed by a block.
	sm := &spinMachine{me: me, total: 13}
	d := NewDriverBackoff(sm, Simulated(v), Backoff{SpinOps: 4})
	if err := sm.StartLock(); err != nil {
		t.Fatal(err)
	}
	if err := d.Drive(); err != nil {
		t.Fatal(err)
	}
	if ops, parks, wakes := d.Stats(); ops != 13 || parks != 3 || wakes != 0 {
		t.Errorf("Stats() = (%d, %d, %d), want (13, 3, 0)", ops, parks, wakes)
	}

	// On hardware memory each block lasts until the cap: three of 20 ms
	// take at least 60 ms.
	_, next := newHardware(t, m)
	sm = &spinMachine{me: me, total: 13}
	d = NewDriverBackoff(sm, next(), Backoff{SpinOps: 4, SleepMax: 20 * time.Millisecond})
	if err := sm.StartLock(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := d.Drive(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < 60*time.Millisecond {
		t.Errorf("three capped parks took %v, want >= 60ms", took)
	}
	if ops, parks, wakes := d.Stats(); ops != 13 || parks != 3 || wakes != 0 {
		t.Errorf("hardware Stats() = (%d, %d, %d), want (13, 3, 0)", ops, parks, wakes)
	}
}

// TestDriverBackoffResetsOnProgress: every write resets the streak, so
// even with SpinOps=1 a solo Algorithm 1 lock — snapshot, then (claim,
// snapshot) × m — never parks.
func TestDriverBackoffResetsOnProgress(t *testing.T) {
	const n, m = 2, 3
	gen := id.NewGenerator()
	me, _ := gen.New()
	a, err := core.NewAlg1(me, n, m, core.Alg1Config{Choice: core.ChooseFirstBottom})
	if err != nil {
		t.Fatal(err)
	}
	_, next := newHardware(t, m)
	d := NewDriverBackoff(a, next(), Backoff{SpinOps: 1, SleepMax: time.Minute})
	if st, err := d.DriveAll(); err != nil || st != core.StatusInCS {
		t.Fatalf("lock: %v %v", st, err)
	}
	if _, parks, _ := d.Stats(); parks != 0 {
		t.Errorf("solo lock parked %d times; progress should keep resetting the backoff", parks)
	}
}

func TestRecorder(t *testing.T) {
	const m = 3
	_, next := newHardware(t, m)
	rec := NewRecorder(next())
	me := rec.Inner.(*amem.View).Me()

	rec.Write(0, me)
	_ = rec.Read(0)
	_ = rec.CompareAndSwap(0, me, id.None)
	_ = rec.Snapshot(nil)

	kinds := []core.OpKind{core.OpWrite, core.OpRead, core.OpCAS, core.OpSnapshot}
	if len(rec.Log) != len(kinds) {
		t.Fatalf("recorded %d ops, want %d", len(rec.Log), len(kinds))
	}
	for i, k := range kinds {
		if rec.Log[i].Kind != k {
			t.Errorf("op %d kind = %v, want %v", i, rec.Log[i].Kind, k)
		}
		if rec.Log[i].String() == "" {
			t.Errorf("op %d renders empty", i)
		}
	}
	if !rec.Log[1].Out.Equal(me) {
		t.Errorf("read result %v, want %v", rec.Log[1].Out, me)
	}
	if !rec.Log[2].Swapped {
		t.Error("CAS outcome not recorded")
	}
	if len(rec.Log[3].Snap) != m {
		t.Errorf("snapshot record has %d values, want %d", len(rec.Log[3].Snap), m)
	}
}

func TestDriveAllRejectsMidInvocation(t *testing.T) {
	const m = 1
	mem := vmem.New(m, false)
	gen := id.NewGenerator()
	me, _ := gen.New()
	v, _ := mem.NewView(me, perm.Identity(m))
	sm := &spinMachine{me: me, total: 5}
	d := NewDriver(sm, Simulated(v))
	sm.status = core.StatusRunning
	sm.left = 5
	if _, err := d.DriveAll(); err == nil {
		t.Fatal("DriveAll accepted a machine mid-invocation")
	}
}
