package scenario

import (
	"fmt"
	"sync"
	"sync/atomic"

	"anonmutex"
	"anonmutex/internal/workload"
)

// RealProcStats is one process's outcome on the real substrate.
type RealProcStats struct {
	Sessions     int
	OwnedAtEntry int
	LockSteps    int // shared-memory ops in the last completed lock()
}

// RealResult reports a scenario executed on the hardware-atomic substrate
// (goroutines over the root package's locks, driven by internal/engine).
type RealResult struct {
	// Entries is the total number of critical-section entries (always
	// N·Sessions on success: the real run blocks until every session
	// completes).
	Entries int
	// MEViolations counts observed mutual-exclusion violations — 0 for the
	// paper's algorithms.
	MEViolations int
	// PerProc are per-process statistics in issue order.
	PerProc []RealProcStats
}

// ValidateReal reports why a normalized spec cannot run on the real
// substrate, or nil if it can. Simulation-only specs are the greedy
// strawman and unchecked sizes (the real locks validate m ∈ M(n), and an
// illegal size would livelock forever), cycle detection, and n < 2.
// HonestSnapshots is accepted and trivially satisfied — the hardware
// substrate's double-scan snapshot is always honest. Schedule, Seed,
// CSTicks, MaxSteps, and TraceCap describe the simulated scheduler and
// are ignored there.
func (s Spec) ValidateReal() error {
	switch {
	case s.Algorithm == anonmutex.Greedy:
		return fmt.Errorf("scenario: the greedy strawman has no real-substrate lock")
	case s.Unchecked:
		return fmt.Errorf("scenario: unchecked sizes cannot run on the real substrate (they may livelock)")
	case s.DetectCycles:
		return fmt.Errorf("scenario: cycle detection requires the simulated substrate")
	case s.N < 2:
		return fmt.Errorf("scenario: the real locks need n >= 2, got %d", s.N)
	}
	return nil
}

// RunReal executes the scenario on the real substrate: one goroutine per
// process over an anonmutex.Lock, with critical-section and remainder
// work drawn from the scenario's workload profile. The schedule is
// whatever the Go runtime does — only aggregate guarantees (mutual
// exclusion, completion) are deterministic. Specs that ValidateReal
// rejects are rejected here too.
func RunReal(s Spec) (*RealResult, error) {
	s, err := s.Normalize()
	if err != nil {
		return nil, err
	}
	if err := s.ValidateReal(); err != nil {
		return nil, err
	}

	opts := []anonmutex.Option{anonmutex.WithRegisters(s.M), anonmutex.WithSeed(s.PermSeed + 1)}
	switch s.Perms {
	case PermsIdentity:
		opts = append(opts, anonmutex.WithPermutations(anonmutex.PermIdentity, 0))
	case PermsRotation:
		opts = append(opts, anonmutex.WithPermutations(anonmutex.PermRotation, s.RotationStep))
	case PermsRandom:
		opts = append(opts, anonmutex.WithPermutations(anonmutex.PermRandom, 0))
	}
	if s.DeterministicClaims {
		opts = append(opts, anonmutex.WithDeterministicClaims())
	}

	lock, err := anonmutex.NewLock(s.Algorithm, s.N, opts...)
	if err != nil {
		return nil, err
	}
	handles := make([]*anonmutex.Process, s.N)
	for i := range handles {
		if handles[i], err = lock.NewProcess(); err != nil {
			return nil, err
		}
	}

	// Per-session CS and remainder work comes from the scenario's unified
	// traffic model: process i replays workload stream i, the same stream
	// a loadgen client or the simulated scheduler would consume.
	plan, err := workload.SpecPlan(s.Traffic, s.N, s.Sessions)
	if err != nil {
		return nil, err
	}

	res := &RealResult{PerProc: make([]RealProcStats, s.N)}
	var inCS, violations, entries atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, s.N)
	for i := 0; i < s.N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := handles[i]
			for _, sess := range plan[i] {
				if err := h.Lock(); err != nil {
					errs[i] = err
					return
				}
				if inCS.Add(1) != 1 {
					violations.Add(1)
				}
				entries.Add(1)
				workload.Spin(sess.CSWork)
				inCS.Add(-1)
				if err := h.Unlock(); err != nil {
					errs[i] = err
					return
				}
				res.PerProc[i].Sessions++
				workload.Spin(sess.RemainderWork)
			}
			res.PerProc[i].OwnedAtEntry = h.OwnedAtEntry()
			res.PerProc[i].LockSteps = h.LockSteps()
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	res.Entries = int(entries.Load())
	res.MEViolations = int(violations.Load())
	return res, nil
}
