package loadgen

// Per-op deadline tests. The two extremes are deterministic: a deadline
// that is already over when the acquire starts aborts every attempt, and
// a generous one aborts none.

import (
	"testing"
	"time"

	"anonmutex/internal/lockmgr"
	"anonmutex/internal/workload"
)

// timedOps is a spec whose every acquire carries the deadline d.
func timedOps(d time.Duration) *workload.Spec {
	return &workload.Spec{Ops: workload.OpMix{Timed: 1, TimeoutMS: float64(d) / float64(time.Millisecond)}}
}

func TestOpTimeoutAbortsEveryAttempt(t *testing.T) {
	mgr, err := lockmgr.New(lockmgr.Config{HandlesPerLock: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	const attempts = 40
	res, err := Run(Config{
		Clients: 4, Keys: 2, Cycles: attempts,
		Workload:  timedOps(time.Nanosecond), // over before any acquire can start
		NewLocker: func(int) (Locker, error) { return NewManagerLocker(mgr), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 0 {
		t.Errorf("cycles = %d, want 0", res.Cycles)
	}
	if res.Aborts != attempts {
		t.Errorf("aborts = %d, want %d", res.Aborts, attempts)
	}
	if res.AbortRate != 1 {
		t.Errorf("abort rate = %v, want 1", res.AbortRate)
	}
	if res.Violations != 0 {
		t.Errorf("violations = %d", res.Violations)
	}
}

func TestOpTimeoutGenerousAbortsNothing(t *testing.T) {
	mgr, err := lockmgr.New(lockmgr.Config{HandlesPerLock: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	res, err := Run(Config{
		Clients: 4, Keys: 2, Cycles: 40,
		Workload:  timedOps(time.Minute),
		NewLocker: func(int) (Locker, error) { return NewManagerLocker(mgr), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborts != 0 {
		t.Errorf("aborts = %d, want 0", res.Aborts)
	}
	if res.Cycles != 40 {
		t.Errorf("cycles = %d, want 40", res.Cycles)
	}
	if res.Violations != 0 || mgr.Violations() != 0 {
		t.Errorf("violations = %d/%d", res.Violations, mgr.Violations())
	}
}

// TestOpTimeoutNeedsDeadlineBackend: timed ops over a backend without
// AcquireFor must fail loudly, not silently fall back to unbounded.
func TestOpTimeoutNeedsDeadlineBackend(t *testing.T) {
	_, err := Run(Config{
		Clients: 1, Keys: 1, Cycles: 1,
		Workload:  timedOps(time.Millisecond),
		NewLocker: func(int) (Locker, error) { return plainLocker{}, nil },
	})
	if err == nil {
		t.Fatal("timed ops over a deadline-less backend succeeded")
	}
}

// plainLocker is a Locker with no AcquireFor.
type plainLocker struct{}

func (plainLocker) Acquire(string) error { return nil }
func (plainLocker) Release(string) error { return nil }
func (plainLocker) Close() error         { return nil }
