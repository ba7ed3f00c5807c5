package loadgen

// Open-loop mode tests: arrival accounting must be exact, and overload
// must surface as aborts/shed — never as mutual-exclusion violations.

import (
	"testing"
	"time"

	"anonmutex/internal/lockmgr"
	"anonmutex/internal/workload"
)

func TestOpenLoopArrivalAccounting(t *testing.T) {
	// A generous rate and a generous SLA: every arrival must be served.
	spec := workload.Spec{
		Seed:    3,
		Arrival: workload.ArrivalSpec{Process: workload.ArrivalPoisson, RatePerSec: 50_000, MaxBacklog: 1024},
	}
	cfg, mgr := serverConfig(t,
		lockmgr.Config{Shards: 2, HandlesPerLock: 4},
		Config{Clients: 4, Keys: 4, Cycles: 300, Workload: &spec})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrivals != 300 {
		t.Errorf("arrivals = %d, want 300", res.Arrivals)
	}
	// Conservation: every arrival was served, aborted, missed, or shed.
	if got := res.Cycles + res.Aborts + res.TryMisses + res.Shed; got != res.Arrivals {
		t.Errorf("cycles+aborts+misses+shed = %d, want %d arrivals", got, res.Arrivals)
	}
	if res.Shed != 0 || res.Aborts != 0 {
		t.Errorf("generous run shed %d, aborted %d", res.Shed, res.Aborts)
	}
	if res.Violations != 0 || mgr.Violations() != 0 {
		t.Errorf("violations = %d/%d", res.Violations, mgr.Violations())
	}
	if res.OfferedPerSec <= 0 || res.Throughput <= 0 {
		t.Errorf("offered=%v achieved=%v", res.OfferedPerSec, res.Throughput)
	}
}

func TestOpenLoopOverloadAbortsNotViolations(t *testing.T) {
	// Offered load far beyond capacity (huge rate, slow critical
	// sections, tight SLA): aborts and/or shed arrivals are the expected
	// safety valve; violations never are.
	spec := workload.Spec{
		Seed:    5,
		BaseCS:  20_000, // slow CS: capacity is tiny
		Arrival: workload.ArrivalSpec{Process: workload.ArrivalBursty, RatePerSec: 500_000, BurstSize: 16, MaxBacklog: 32},
		Ops:     workload.OpMix{Timed: 1, TimeoutMS: 0.5},
	}
	cfg, mgr := serverConfig(t,
		lockmgr.Config{Shards: 2, HandlesPerLock: 2},
		Config{Clients: 4, Keys: 2, Cycles: 2000, Workload: &spec})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 || mgr.Violations() != 0 {
		t.Fatalf("violations = %d/%d under overload", res.Violations, mgr.Violations())
	}
	if res.Aborts+res.Shed == 0 {
		t.Errorf("overload produced no aborts or shed arrivals: %+v", res)
	}
	if res.OfferedPerSec <= res.Throughput {
		t.Errorf("offered (%v/s) should exceed achieved (%v/s) under overload",
			res.OfferedPerSec, res.Throughput)
	}
	if got := res.Cycles + res.Aborts + res.TryMisses + res.Shed; got != res.Arrivals {
		t.Errorf("cycles+aborts+misses+shed = %d, want %d arrivals", got, res.Arrivals)
	}
}

func TestOpenLoopDurationBound(t *testing.T) {
	spec := workload.Spec{
		Seed:    11,
		Arrival: workload.ArrivalSpec{Process: workload.ArrivalPoisson, RatePerSec: 20_000},
	}
	cfg, _ := serverConfig(t,
		lockmgr.Config{HandlesPerLock: 2},
		Config{Clients: 2, Keys: 2, Duration: 50 * time.Millisecond, Workload: &spec})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Error("no cycles completed in a 50ms open-loop run")
	}
	if res.Violations != 0 {
		t.Errorf("violations = %d", res.Violations)
	}
}
