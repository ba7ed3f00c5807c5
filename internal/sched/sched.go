// Package sched drives protocol state machines over simulated anonymous
// memory, one shared-memory operation per step, under a pluggable
// scheduling policy.
//
// This is the execution model the paper's proofs reason about: an
// asynchronous adversary picks, at every step, which process performs its
// next shared-memory operation. Round-robin and seeded-random policies
// produce fair executions for correctness testing; the lock-step policy
// with a rotation adversary reproduces the Theorem 5 lower-bound
// executions; stall wrappers inject arbitrary (finite) delays.
//
// The runner can fingerprint the complete global state after every step.
// In a fully deterministic configuration (deterministic machines, stateful
// policy, atomic snapshots, unstamped memory), a repeated fingerprint
// proves the execution has entered a cycle it can never leave — the
// operational definition of livelock, and the verdict the Theorem 5
// experiments rely on.
package sched

import (
	"fmt"

	"anonmutex"
	"anonmutex/internal/core"
	"anonmutex/internal/engine"
	"anonmutex/internal/id"
	"anonmutex/internal/perm"
	"anonmutex/internal/strawman"
	"anonmutex/internal/trace"
	"anonmutex/internal/vmem"
)

// MachineFactory builds the protocol machine for the i-th process with
// identity me. The index i is the external observer's numbering (used by
// adversaries and reports); the machine itself must use only me.
type MachineFactory func(i int, me id.ID) (core.Machine, error)

// Config describes a simulated execution.
type Config struct {
	// N is the number of processes.
	N int
	// M is the number of anonymous registers.
	M int
	// NewMachine builds each process's protocol machine.
	NewMachine MachineFactory
	// Adversary assigns address permutations (nil: identity — a
	// non-anonymous memory).
	Adversary perm.Adversary
	// Policy picks the next process to step (nil: round-robin).
	Policy Policy
	// Sessions is how many lock→CS→unlock cycles each process performs
	// (default 1).
	Sessions int
	// CSTicks is how many scheduler steps a process spends inside the
	// critical section before starting unlock (default 0: it unlocks on
	// its next scheduled step).
	CSTicks int
	// CSTicksFor, when non-nil, overrides CSTicks per entry: it is
	// called at each CS entry with the process index and its 0-based
	// session number and must be deterministic (the unified workload
	// model's session plans are; cycle detection fingerprints the
	// remaining ticks, not the function).
	CSTicksFor func(proc, session int) int
	// MaxSteps bounds the run (default 1_000_000).
	MaxSteps int
	// HonestSnapshots expands each snapshot into individually scheduled
	// register reads (double scan). Otherwise snapshots are single atomic
	// steps, which is how the paper's proofs treat them.
	HonestSnapshots bool
	// DetectCycles fingerprints global states and stops with a livelock
	// verdict when a state repeats. Requires a deterministic
	// configuration: a StatefulPolicy, atomic snapshots, and machines
	// whose moves depend only on observed values.
	DetectCycles bool
	// TraceCap limits retained trace events (0: no trace retention).
	TraceCap int
	// IDSeed, when nonzero, draws process identities in a seeded shuffled
	// order instead of generator order, exercising the symmetry
	// discipline.
	IDSeed uint64
}

func (c *Config) normalize() error {
	if c.N < 1 {
		return fmt.Errorf("sched: need at least one process, got %d", c.N)
	}
	if c.M < 1 {
		return fmt.Errorf("sched: need at least one register, got %d", c.M)
	}
	if c.NewMachine == nil {
		return fmt.Errorf("sched: NewMachine factory is required")
	}
	if c.Adversary == nil {
		c.Adversary = perm.IdentityAdversary{}
	}
	if c.Policy == nil {
		c.Policy = &RoundRobin{}
	}
	if c.Sessions == 0 {
		c.Sessions = 1
	}
	if c.Sessions < 0 {
		return fmt.Errorf("sched: Sessions must be positive, got %d", c.Sessions)
	}
	if c.CSTicks < 0 {
		return fmt.Errorf("sched: CSTicks must be non-negative, got %d", c.CSTicks)
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 1_000_000
	}
	if c.DetectCycles {
		if c.HonestSnapshots {
			return fmt.Errorf("sched: cycle detection requires atomic snapshots (stepper state is not fingerprinted)")
		}
		if _, ok := c.Policy.(StatefulPolicy); !ok {
			return fmt.Errorf("sched: cycle detection requires a StatefulPolicy, got %T", c.Policy)
		}
	}
	return nil
}

// Result reports a completed (or aborted) simulated execution.
type Result struct {
	// Steps is the number of scheduler steps executed.
	Steps int
	// Completed reports whether every process finished all its sessions.
	Completed bool
	// CycleDetected reports that the global state repeated under a
	// deterministic configuration: the execution is in a livelock and no
	// lock()/unlock() will ever complete. CycleStep/CycleStart locate it.
	CycleDetected bool
	CycleStart    int
	CycleStep     int
	// Violations are mutual-exclusion violations observed (must be empty
	// for correct algorithms, on any schedule).
	Violations []trace.Violation
	// Entries is the total number of critical-section entries.
	Entries int
	// PerProc are per-process statistics.
	PerProc []ProcStats
	// Trace holds retained events (nil without TraceCap).
	Trace *trace.Trace
	// MemWrites counts effective writes to the shared memory.
	MemWrites uint64
	// FinalValues is the memory's algorithmic content at the end.
	FinalValues []id.ID
}

// ProcStats summarizes one process's execution.
type ProcStats struct {
	ID           id.ID
	Sessions     int // completed sessions
	Entries      int
	MaxWaitSteps int
	MeanWait     float64
	Bypasses     int
	MaxBypasses  int // most entries by others during one lock()
	OwnedAtEntry int // registers owned at the last CS entry
	LockSteps    int // shared-memory ops in the last completed lock()
}

// proc is the runner's per-process bookkeeping.
type proc struct {
	machine  core.Machine
	view     *vmem.View
	exec     engine.Executor // the view, behind the unified op executor
	stepper  *vmem.SnapshotStepper
	sessions int // remaining sessions
	csLeft   int
	snapBuf  []id.ID
}

// Runner executes one configured simulation. Create with New, then
// Run it, or drive it one Step at a time and read Result between steps;
// a Runner is single-use.
type Runner struct {
	cfg     Config
	mem     *vmem.Memory
	ps      []*proc
	mon     *trace.Monitor
	tr      *trace.Trace
	res     Result
	seen    map[string]int // fingerprint → step, with DetectCycles
	enabled []int
}

// New validates cfg and builds a runner.
func New(cfg Config) (*Runner, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	// Stamping is needed only for honest double scans; leaving it off
	// keeps states canonical for cycle detection.
	mem := vmem.New(cfg.M, cfg.HonestSnapshots)
	var gen *id.Generator
	if cfg.IDSeed != 0 {
		gen = id.NewShuffledGenerator(cfg.IDSeed)
	} else {
		gen = id.NewGenerator()
	}
	ps := make([]*proc, cfg.N)
	for i := range ps {
		me, err := gen.New()
		if err != nil {
			return nil, fmt.Errorf("sched: issuing identity %d: %w", i, err)
		}
		machine, err := cfg.NewMachine(i, me)
		if err != nil {
			return nil, fmt.Errorf("sched: building machine %d: %w", i, err)
		}
		if !machine.Me().Equal(me) {
			return nil, fmt.Errorf("sched: machine %d does not carry its assigned identity", i)
		}
		view, err := mem.NewView(me, cfg.Adversary.Assign(i, cfg.M))
		if err != nil {
			return nil, fmt.Errorf("sched: view %d: %w", i, err)
		}
		ps[i] = &proc{
			machine:  machine,
			view:     view,
			exec:     engine.Simulated(view),
			sessions: cfg.Sessions,
			snapBuf:  make([]id.ID, cfg.M),
		}
	}
	r := &Runner{cfg: cfg, mem: mem, ps: ps, mon: trace.NewMonitor(cfg.N), enabled: make([]int, 0, cfg.N)}
	if cfg.TraceCap > 0 {
		r.tr = trace.NewTrace(cfg.TraceCap)
	}
	r.res.Trace = r.tr
	if cfg.DetectCycles {
		r.seen = make(map[string]int, 4096)
	}
	return r, nil
}

// Run executes the simulation to completion, cycle detection, or the step
// bound.
func (r *Runner) Run() (*Result, error) {
	for {
		more, err := r.Step()
		if err != nil {
			return nil, err
		}
		if !more {
			return r.Result(), nil
		}
	}
}

// Step performs one scheduler step. It reports false, and steps no
// more, once the run is over: every process has finished its sessions,
// the global state repeated (with DetectCycles), or MaxSteps steps ran.
func (r *Runner) Step() (bool, error) {
	step := r.res.Steps
	if r.res.Completed || r.res.CycleDetected || step >= r.cfg.MaxSteps {
		return false, nil
	}
	r.enabled = r.enabled[:0]
	for i, p := range r.ps {
		if p.machine.Status() != core.StatusIdle || p.sessions > 0 {
			r.enabled = append(r.enabled, i)
		}
	}
	if len(r.enabled) == 0 {
		r.res.Completed = true
		return false, nil
	}
	if err := r.tick(r.cfg.Policy.Next(r.enabled), step); err != nil {
		return false, err
	}
	r.res.Steps = step + 1

	if r.seen != nil {
		key := string(r.fingerprint(nil))
		if first, dup := r.seen[key]; dup {
			r.res.CycleDetected = true
			r.res.CycleStart = first
			r.res.CycleStep = step
			return false, nil
		}
		r.seen[key] = step
	}
	return true, nil
}

// tick performs one scheduler step for process i at the given step count.
func (r *Runner) tick(i, step int) error {
	p := r.ps[i]
	m := p.machine
	switch m.Status() {
	case core.StatusIdle:
		if p.sessions == 0 {
			return fmt.Errorf("sched: scheduled a finished process %d", i)
		}
		if err := m.StartLock(); err != nil {
			return fmt.Errorf("sched: process %d: %w", i, err)
		}
		r.mon.OnLockStart(i, step)
		r.tr.Add(trace.Event{Step: step, Proc: i, Kind: trace.EvLockStart})
		return r.execOp(i, step)
	case core.StatusRunning:
		return r.execOp(i, step)
	case core.StatusInCS:
		if p.csLeft > 0 {
			p.csLeft--
			return nil
		}
		if err := m.StartUnlock(); err != nil {
			return fmt.Errorf("sched: process %d: %w", i, err)
		}
		r.mon.OnExit(i, step)
		r.tr.Add(trace.Event{Step: step, Proc: i, Kind: trace.EvUnlockStart})
		return r.execOp(i, step)
	default:
		return fmt.Errorf("sched: process %d in unknown status", i)
	}
}

// execOp executes exactly one shared-memory operation for process i.
func (r *Runner) execOp(i, step int) error {
	p := r.ps[i]
	m := p.machine

	// An honest snapshot in flight: advance it by one read.
	if p.stepper != nil {
		r.tr.Add(trace.Event{Step: step, Proc: i, Kind: trace.EvOp, Op: core.Op{Kind: core.OpRead}, Line: m.Line()})
		if p.stepper.Step() {
			p.snapBuf = p.stepper.Result(p.snapBuf)
			p.stepper = nil
			r.afterAdvance(i, step, m.Advance(core.OpResult{Snap: p.snapBuf}))
		}
		return nil
	}

	op := m.PendingOp()
	r.tr.Add(trace.Event{Step: step, Proc: i, Kind: trace.EvOp, Op: op, Line: m.Line()})
	if op.Kind == core.OpSnapshot && r.cfg.HonestSnapshots {
		p.stepper = vmem.NewSnapshotStepper(p.view)
		// This step performed the stepper's first read.
		if p.stepper.Step() {
			p.snapBuf = p.stepper.Result(p.snapBuf)
			p.stepper = nil
			r.afterAdvance(i, step, m.Advance(core.OpResult{Snap: p.snapBuf}))
		}
		return nil
	}
	res, buf, err := engine.Exec(p.exec, op, p.snapBuf)
	if err != nil {
		return fmt.Errorf("sched: process %d: %w", i, err)
	}
	p.snapBuf = buf
	r.afterAdvance(i, step, m.Advance(res))
	return nil
}

// afterAdvance handles life-cycle transitions reported by Advance.
func (r *Runner) afterAdvance(i, step int, st core.Status) {
	p := r.ps[i]
	switch st {
	case core.StatusInCS:
		r.mon.OnEnter(i, step)
		r.tr.Add(trace.Event{Step: step, Proc: i, Kind: trace.EvEnterCS})
		if r.cfg.CSTicksFor != nil {
			// p.sessions is not yet decremented, so completed sessions
			// = Sessions - p.sessions indexes the one entered now.
			p.csLeft = r.cfg.CSTicksFor(i, r.cfg.Sessions-p.sessions)
		} else {
			p.csLeft = r.cfg.CSTicks
		}
		if p.csLeft < 0 {
			p.csLeft = 0
		}
	case core.StatusIdle:
		p.sessions--
		r.tr.Add(trace.Event{Step: step, Proc: i, Kind: trace.EvUnlockDone})
	}
}

// fingerprint encodes the complete global state: memory values, every
// machine's local state, per-process session/CS counters, and the policy
// state.
func (r *Runner) fingerprint(dst []byte) []byte {
	dst = r.mem.AppendState(dst)
	for _, p := range r.ps {
		dst = p.machine.AppendState(dst)
		dst = append(dst, byte(p.sessions>>8), byte(p.sessions), byte(p.csLeft>>8), byte(p.csLeft))
	}
	if sp, ok := r.cfg.Policy.(StatefulPolicy); ok {
		dst = sp.AppendState(dst)
	}
	return dst
}

// Result reports the execution so far: after Step has returned false,
// the outcome of the run.
func (r *Runner) Result() *Result {
	res := r.res
	res.Violations = r.mon.Violations()
	res.Entries = r.mon.TotalEntries()
	res.MemWrites = r.mem.Writes()
	res.FinalValues = r.mem.Values()
	entries := r.mon.Entries()
	maxW := r.mon.MaxWait()
	meanW := r.mon.MeanWait()
	byp := r.mon.Bypasses()
	maxByp := r.mon.MaxBypasses()
	res.PerProc = make([]ProcStats, len(r.ps))
	for i, p := range r.ps {
		res.PerProc[i] = ProcStats{
			ID:           p.machine.Me(),
			Sessions:     r.cfg.Sessions - p.sessions,
			Entries:      entries[i],
			MaxWaitSteps: maxW[i],
			MeanWait:     meanW[i],
			Bypasses:     byp[i],
			MaxBypasses:  maxByp[i],
			OwnedAtEntry: p.machine.OwnedAtEntry(),
			LockSteps:    p.machine.LockSteps(),
		}
	}
	return &res
}

// Run is a convenience wrapper: build and run in one call.
func Run(cfg Config) (*Result, error) {
	r, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return r.Run()
}

// Factory returns the MachineFactory that builds alg's machines, in the
// paper's configuration, for n processes over m registers: the one place
// an anonmutex.Algorithm becomes a core.Machine. unchecked skips the
// m ∈ M(n) validation the lower-bound experiments need; the greedy
// strawman is never validated.
func Factory(alg anonmutex.Algorithm, n, m int, unchecked bool) (MachineFactory, error) {
	switch alg {
	case anonmutex.RW:
		if unchecked {
			return Alg1UncheckedFactory(m, core.Alg1Config{}), nil
		}
		return Alg1Factory(n, m, core.Alg1Config{}), nil
	case anonmutex.RMW:
		if unchecked {
			return Alg2UncheckedFactory(m, core.Alg2Config{}), nil
		}
		return Alg2Factory(n, m, core.Alg2Config{}), nil
	case anonmutex.Greedy:
		return func(_ int, me id.ID) (core.Machine, error) {
			return strawman.New(me, m), nil
		}, nil
	default:
		return nil, fmt.Errorf("sched: unknown algorithm %v", alg)
	}
}

// Alg1Factory returns a MachineFactory building paper-configured
// Algorithm 1 machines for n processes over m registers (validated).
func Alg1Factory(n, m int, cfg core.Alg1Config) MachineFactory {
	return func(_ int, me id.ID) (core.Machine, error) {
		return core.NewAlg1(me, n, m, cfg)
	}
}

// Alg1UncheckedFactory builds Algorithm 1 machines without the m ∈ M(n)
// validation, for lower-bound experiments.
func Alg1UncheckedFactory(m int, cfg core.Alg1Config) MachineFactory {
	return func(_ int, me id.ID) (core.Machine, error) {
		return core.NewAlg1Unchecked(me, m, cfg)
	}
}

// Alg2Factory returns a MachineFactory building paper-configured
// Algorithm 2 machines (validated).
func Alg2Factory(n, m int, cfg core.Alg2Config) MachineFactory {
	return func(_ int, me id.ID) (core.Machine, error) {
		return core.NewAlg2(me, n, m, cfg)
	}
}

// Alg2UncheckedFactory builds Algorithm 2 machines without validation.
func Alg2UncheckedFactory(m int, cfg core.Alg2Config) MachineFactory {
	return func(_ int, me id.ID) (core.Machine, error) {
		return core.NewAlg2Unchecked(me, m, cfg)
	}
}
