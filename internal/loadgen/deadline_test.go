package loadgen

// Per-op deadline tests. The two extremes are deterministic: a deadline
// on keys another session holds throughout aborts every attempt, and a
// generous one on free keys aborts none.

import (
	"fmt"
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
	const attempts, keys = 40, 2
	mgr, cl := startServer(t, lockmgr.Config{HandlesPerLock: 2})
	// The wire rounds a sub-millisecond deadline up to 1ms, so a tiny
	// deadline alone could still win a free key: hold every key from a
	// session of its own, and every timed attempt must withdraw.
	holder, err := cl.Open()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		if err := holder.Acquire(fmt.Sprintf("key-%04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Run(Config{
		Clients: 4, Keys: keys, Cycles: attempts,
		Workload:  timedOps(time.Nanosecond),
		NewLocker: func(int) (Locker, error) { return cl.Open() },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := holder.Close(); err != nil {
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
	if res.Violations != 0 || mgr.Violations() != 0 {
		t.Errorf("violations = %d/%d", res.Violations, mgr.Violations())
	}
}

func TestOpTimeoutGenerousAbortsNothing(t *testing.T) {
	cfg, mgr := serverConfig(t, lockmgr.Config{HandlesPerLock: 2},
		Config{Clients: 4, Keys: 2, Cycles: 40, Workload: timedOps(time.Minute)})
	res, err := Run(cfg)
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
