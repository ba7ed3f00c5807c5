// Package trace records simulated executions and checks their safety and
// progress properties online.
//
// Events are emitted by the scheduler (internal/sched) at every
// shared-memory step and at every lock/unlock life-cycle transition. The
// monitors implement the paper's two correctness properties (§II-E):
//
//   - Monitor (mutual exclusion): "no two processes are simultaneously in
//     their critical section" — checked at every entry against the set of
//     processes currently inside.
//   - Progress accounting: deadlock-freedom is a liveness property; for
//     bounded runs we record entries, per-process lockouts, and waiting
//     spans, letting experiments distinguish "completed", "still
//     progressing", and "wedged" outcomes. Definitive livelock verdicts
//     come from state-cycle detection in the scheduler and from the
//     exhaustive model checker.
package trace

import (
	"fmt"
	"strings"

	"anonmutex/internal/core"
)

// EventKind classifies trace events.
type EventKind uint8

// Event kinds.
const (
	EvLockStart   EventKind = iota + 1 // process began lock()
	EvOp                               // process executed one shared-memory op
	EvEnterCS                          // lock() completed
	EvUnlockStart                      // process began unlock()
	EvUnlockDone                       // unlock() completed; back to remainder
)

// String returns the event kind name.
func (k EventKind) String() string {
	switch k {
	case EvLockStart:
		return "lock-start"
	case EvOp:
		return "op"
	case EvEnterCS:
		return "enter-cs"
	case EvUnlockStart:
		return "unlock-start"
	case EvUnlockDone:
		return "unlock-done"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one step of a simulated execution. Proc is the scheduler's
// process index (external observer numbering; the processes themselves
// remain symmetric).
type Event struct {
	Step int
	Proc int
	Kind EventKind
	Op   core.Op // valid when Kind == EvOp
	Line int     // paper line the process was at
}

// String renders the event compactly, e.g. "17 p2 op read[3]@9".
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d p%d %v", e.Step, e.Proc, e.Kind)
	if e.Kind == EvOp {
		fmt.Fprintf(&b, " %v[%d]@%d", e.Op.Kind, e.Op.X, e.Line)
	}
	return b.String()
}

// Trace accumulates events up to a cap; past the cap it counts drops
// instead of growing without bound.
type Trace struct {
	Events  []Event
	Dropped int
	cap     int
}

// NewTrace creates a trace retaining at most capEvents events
// (capEvents <= 0 disables retention entirely).
func NewTrace(capEvents int) *Trace {
	return &Trace{cap: capEvents}
}

// Add appends an event, or counts it as dropped when the cap is reached.
func (tr *Trace) Add(e Event) {
	if tr == nil {
		return
	}
	if tr.cap <= 0 || len(tr.Events) >= tr.cap {
		tr.Dropped++
		return
	}
	tr.Events = append(tr.Events, e)
}

// Len returns the number of retained events.
func (tr *Trace) Len() int {
	if tr == nil {
		return 0
	}
	return len(tr.Events)
}

// Violation records a mutual-exclusion violation: the step at which a
// process entered the critical section while others were inside.
type Violation struct {
	Step    int
	Entered int   // the process that just entered
	Inside  []int // processes already inside
}

// String renders the violation.
func (v Violation) String() string {
	return fmt.Sprintf("step %d: p%d entered the CS while %v inside", v.Step, v.Entered, v.Inside)
}

// Monitor checks mutual exclusion online and accumulates progress
// statistics. The zero value is unusable; create with NewMonitor.
type Monitor struct {
	n          int
	inCS       []bool
	insideCnt  int
	violations []Violation

	entries     []int // CS entries per process
	lockStarts  []int // lock() invocations per process
	waitingFrom []int // step of the pending lock() start, -1 if none
	maxWait     []int // longest lock() duration in steps, per process
	totalWait   []int64
	bypasses    []int // entries by others while this process was waiting
	waitByp     []int // bypasses of the pending lock() alone
	maxByp      []int // most bypasses of one lock()
}

// NewMonitor creates a monitor for n processes.
func NewMonitor(n int) *Monitor {
	m := &Monitor{
		n:           n,
		inCS:        make([]bool, n),
		violations:  nil,
		entries:     make([]int, n),
		lockStarts:  make([]int, n),
		waitingFrom: make([]int, n),
		maxWait:     make([]int, n),
		totalWait:   make([]int64, n),
		bypasses:    make([]int, n),
		waitByp:     make([]int, n),
		maxByp:      make([]int, n),
	}
	for i := range m.waitingFrom {
		m.waitingFrom[i] = -1
	}
	return m
}

// OnLockStart records that proc began lock() at step.
func (m *Monitor) OnLockStart(proc, step int) {
	m.lockStarts[proc]++
	m.waitingFrom[proc] = step
	m.waitByp[proc] = 0
}

// OnEnter records that proc entered the critical section at step,
// detecting mutual-exclusion violations.
func (m *Monitor) OnEnter(proc, step int) {
	if m.insideCnt > 0 {
		inside := make([]int, 0, m.insideCnt)
		for p, in := range m.inCS {
			if in {
				inside = append(inside, p)
			}
		}
		m.violations = append(m.violations, Violation{Step: step, Entered: proc, Inside: inside})
	}
	m.inCS[proc] = true
	m.insideCnt++
	m.entries[proc]++
	if from := m.waitingFrom[proc]; from >= 0 {
		wait := step - from
		m.totalWait[proc] += int64(wait)
		if wait > m.maxWait[proc] {
			m.maxWait[proc] = wait
		}
		m.waitingFrom[proc] = -1
	}
	// Everyone still waiting was bypassed by this entry.
	for p, from := range m.waitingFrom {
		if p != proc && from >= 0 {
			m.bypasses[p]++
			m.waitByp[p]++
			m.maxByp[p] = max(m.maxByp[p], m.waitByp[p])
		}
	}
}

// OnExit records that proc left the critical section (began unlock()).
func (m *Monitor) OnExit(proc, step int) {
	_ = step
	if !m.inCS[proc] {
		// An exit without an entry is a harness bug, not a protocol bug.
		panic(fmt.Sprintf("trace: process %d exited the CS without being inside", proc))
	}
	m.inCS[proc] = false
	m.insideCnt--
}

// Violations returns all recorded mutual-exclusion violations.
func (m *Monitor) Violations() []Violation { return m.violations }

// Entries returns per-process critical-section entry counts.
func (m *Monitor) Entries() []int {
	out := make([]int, m.n)
	copy(out, m.entries)
	return out
}

// TotalEntries returns the total number of CS entries.
func (m *Monitor) TotalEntries() int {
	total := 0
	for _, e := range m.entries {
		total += e
	}
	return total
}

// MaxWait returns, for each process, the longest lock() it completed (in
// scheduler steps).
func (m *Monitor) MaxWait() []int {
	out := make([]int, m.n)
	copy(out, m.maxWait)
	return out
}

// MeanWait returns, for each process, the mean completed-lock() duration
// in steps (0 when the process never entered).
func (m *Monitor) MeanWait() []float64 {
	out := make([]float64, m.n)
	for p := range out {
		if m.entries[p] > 0 {
			out[p] = float64(m.totalWait[p]) / float64(m.entries[p])
		}
	}
	return out
}

// Bypasses returns, for each process, how many times some other process
// entered the CS while this process had a pending lock(). Deadlock-freedom
// permits unbounded bypassing (no starvation guarantee), but the count
// spans every lock() of a run, so a FIFO lock scores above 0 too; the
// per-wait bound is MaxBypasses.
func (m *Monitor) Bypasses() []int {
	out := make([]int, m.n)
	copy(out, m.bypasses)
	return out
}

// MaxBypasses returns, for each process, the most entries by others
// during a single lock() of its own. A FIFO lock bounds it by n-1: each
// other process enters at most once ahead of a waiter.
func (m *Monitor) MaxBypasses() []int {
	out := make([]int, m.n)
	copy(out, m.maxByp)
	return out
}

// AnyInside reports whether some process is currently in the CS.
func (m *Monitor) AnyInside() bool { return m.insideCnt > 0 }
