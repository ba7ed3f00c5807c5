package engine

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"anonmutex/internal/core"
	"anonmutex/internal/id"
)

// Backoff tunes the Driver's adaptive wait strategy. The zero value means
// DefaultBackoff. The policy has three phases, escalating while the
// machine burns operations without making progress (progress = a write,
// or a successful CAS — the moves that change the shared memory):
//
//  1. pure spin for the first SpinOps ops — the common uncontended case
//     completes here without ever entering the scheduler;
//  2. runtime.Gosched after each op for the next YieldOps ops — polite to
//     sibling goroutines while the lock is briefly contended;
//  3. sleeping, starting at SleepMin and doubling per op up to SleepMax —
//     a long wait (another process holds the lock, or many competitors)
//     should not burn a core.
//
// Any progress resets the policy to phase 1. A compare&swap sweep is one
// step of the Driver: each of its ops counts, and it waits at most once.
type Backoff struct {
	// SpinOps is the number of non-progressing ops executed back-to-back
	// before the driver starts yielding (default 64).
	SpinOps int
	// YieldOps is the number of non-progressing ops accompanied by a
	// Gosched before the driver starts sleeping (default 64).
	YieldOps int
	// SleepMin and SleepMax bound the exponential sleep phase (defaults
	// 1µs and 256µs).
	SleepMin, SleepMax time.Duration

	// yield and sleep are test seams; nil means runtime.Gosched and
	// time.Sleep.
	yield func()
	sleep func(time.Duration)
}

// DefaultBackoff returns the production backoff policy.
func DefaultBackoff() Backoff {
	return Backoff{
		SpinOps:  64,
		YieldOps: 64,
		SleepMin: time.Microsecond,
		SleepMax: 256 * time.Microsecond,
	}
}

func (b *Backoff) normalize() {
	d := DefaultBackoff()
	if b.SpinOps <= 0 {
		b.SpinOps = d.SpinOps
	}
	if b.YieldOps <= 0 {
		b.YieldOps = d.YieldOps
	}
	if b.SleepMin <= 0 {
		b.SleepMin = d.SleepMin
	}
	if b.SleepMax < b.SleepMin {
		b.SleepMax = b.SleepMin
	}
	if b.yield == nil {
		b.yield = runtime.Gosched
	}
	if b.sleep == nil {
		b.sleep = time.Sleep
	}
}

// Driver runs one machine's invocations against one Executor: the single
// shared drive loop behind both real locks (and any other blocking use of
// the machines). A Driver belongs to one process; it is not safe for
// concurrent use.
//
// The Driver's unit of work is a step: one op, or — when the pending op
// is a compare&swap that opens one of Algorithm 2's sweeps (line 2's
// claim, line 13's erase, the withdraw) — the rest of that sweep, which
// the machine issues back to back through Machine.SweepCAS. The ops and
// their order are those of op-by-op driving; only the Driver's own
// bookkeeping moves to step boundaries. Cancellation is polled, and the
// backoff applied, once per step: at most m ops late during a sweep, and
// a sweep that swapped nowhere adds all its ops to the no-progress streak
// but waits at most once, after it ends. The read sweeps and every
// Algorithm 1 op stay one op a step, so waiting processes poll at the
// same cadence. TryDriveBounded caps a sweep at its remaining budget, so
// its bound stays exact.
type Driver struct {
	machine core.Machine
	exec    Executor
	// backoff is read, never written: NewDriver's drivers all share
	// defaultBackoff.
	backoff *Backoff
	// snapBuf is made by the first snapshot the machine requests (Exec
	// grows it) and reused from then on; a driver of Algorithm 2, which
	// never snapshots, never has one.
	snapBuf []id.ID

	// streak counts consecutive ops without progress within the current
	// invocation. It resets on every progress op and at the start of each
	// Drive call: a contended Lock must not leave the driver in the sleep
	// phase, or the following Unlock would sleep while holding the
	// critical section.
	streak int

	// Statistics.
	ops    uint64 // total ops executed
	yields uint64 // Gosched calls
	sleeps uint64 // sleep calls
	aborts uint64 // invocations withdrawn by DriveContext
}

// NewDriver builds a driver for machine over exec with the default
// backoff. Steady-state driving performs zero allocations per operation.
func NewDriver(machine core.Machine, exec Executor) *Driver {
	return &Driver{machine: machine, exec: exec, backoff: defaultBackoff}
}

// defaultBackoff is the normalized DefaultBackoff every NewDriver points
// at, so a process handle does not carry a copy of the policy.
var defaultBackoff = func() *Backoff {
	b := DefaultBackoff()
	b.normalize()
	return &b
}()

// NewDriverBackoff builds a driver with an explicit backoff policy, of
// which it keeps its own copy.
func NewDriverBackoff(machine core.Machine, exec Executor, b Backoff) *Driver {
	b.normalize()
	return &Driver{machine: machine, exec: exec, backoff: &b}
}

// Machine returns the driven machine.
func (d *Driver) Machine() core.Machine { return d.machine }

// Drive executes the machine's pending shared-memory operations until the
// current invocation completes (Status leaves Running). It returns an
// error only if the machine requests an operation the substrate does not
// know — impossible for the repository's machines.
func (d *Driver) Drive() error {
	_, err := d.drive(nil)
	return err
}

// drive is the loop shared by Drive and DriveContext: execute steps with
// the adaptive backoff until the invocation completes or done (when
// non-nil) fires at a step boundary, reported as cancelled=true with the
// machine still Running. The nil-done case — every plain Lock/Unlock,
// including the whole uncontended fast path — runs a dedicated tight
// loop with no cancellation poll on the step boundary.
func (d *Driver) drive(done <-chan struct{}) (cancelled bool, err error) {
	d.streak = 0
	if done == nil {
		for d.machine.Status() == core.StatusRunning {
			if err := d.execOne(); err != nil {
				return false, err
			}
		}
		return false, nil
	}
	for d.machine.Status() == core.StatusRunning {
		select {
		case <-done:
			return true, nil
		default:
		}
		if err := d.execOne(); err != nil {
			return false, err
		}
	}
	return false, nil
}

// step executes the machine's pending op and feeds the result back — or,
// when that op opens a compare&swap sweep, lets the machine run the sweep
// (at most budget ops) in one call. It reports how many ops ran and
// whether any changed the shared memory (a write, or a CAS that swapped).
func (d *Driver) step(budget int) (n int, progress bool, err error) {
	op := d.machine.PendingOp()
	if op.Kind == core.OpCAS {
		if n, progress = d.machine.SweepCAS(d.exec, budget); n > 0 {
			d.ops += uint64(n)
			return n, progress, nil
		}
	}
	res, buf, err := Exec(d.exec, op, d.snapBuf)
	if err != nil {
		return 0, false, err
	}
	d.snapBuf = buf
	d.machine.Advance(res)
	d.ops++
	return 1, op.Kind == core.OpWrite || (op.Kind == core.OpCAS && res.Swapped), nil
}

// execOne executes one step and applies the adaptive backoff when it made
// no progress; a sweep's ops all count towards the streak, but it waits
// at most once, after the sweep.
func (d *Driver) execOne() error {
	n, progress, err := d.step(math.MaxInt)
	if err != nil {
		return err
	}
	if progress {
		// The shared memory changed: the protocol is moving. Restart
		// the escalation from the spin phase.
		d.streak = 0
		return nil
	}
	d.streak += n
	if d.machine.Status() != core.StatusRunning {
		// The invocation just completed; don't wait on its last op.
		return nil
	}
	switch {
	case d.streak <= d.backoff.SpinOps:
		// Phase 1: spin.
	case d.streak <= d.backoff.SpinOps+d.backoff.YieldOps:
		d.yields++
		d.backoff.yield()
	default:
		over := d.streak - d.backoff.SpinOps - d.backoff.YieldOps - 1
		dur := d.backoff.SleepMin << min(over, 62)
		if dur > d.backoff.SleepMax || dur <= 0 {
			dur = d.backoff.SleepMax
		}
		d.sleeps++
		d.backoff.sleep(dur)
	}
	return nil
}

// DriveContext is Drive with cancellation: it executes the machine's
// pending operations until the current invocation completes or ctx is
// done. On cancellation mid-lock() it does not simply stop — an entry-
// section process may own anonymous registers, and abandoning them would
// wedge every other competitor — instead it withdraws: the machine's
// StartAbort back-out runs to completion (a bounded erase sweep, at most
// 2m operations, never blocking on other processes), leaving the shared
// registers exactly as if this process had never competed, and ctx's
// error is returned. A machine that completes its invocation (reaches
// the critical section, or finishes unlock) before the cancellation is
// observed completes normally and returns nil — the caller holds the
// lock even if ctx expired in the same instant.
//
// The waiting policy matches Drive: spin, then yield, then escalating
// sleeps, with the cancellation checked at every step boundary — every
// op, except inside a compare&swap sweep of at most m ops (sleeps are
// bounded by SleepMax, so cancellation latency is at most one sleep).
func (d *Driver) DriveContext(ctx context.Context) error {
	done := ctx.Done()
	if done == nil {
		return d.Drive()
	}
	cancelled, err := d.drive(done)
	if err != nil {
		return err
	}
	if cancelled {
		return d.withdraw(ctx.Err())
	}
	return nil
}

// TryDriveBounded is the engine's non-blocking acquisition attempt: it
// executes at most maxOps operations of the machine's in-progress lock()
// and reports whether the invocation completed. If the budget runs out
// first, the attempt is withdrawn (the machine's StartAbort back-out
// runs to completion, leaving the registers as if the process had never
// competed) and acquired=false is returned. Unlike Drive, the whole call
// is bounded — at most maxOps + the withdraw sweep's operations — and
// never backs off or sleeps, which makes it the primitive behind
// hard-bounded trylocks: pick maxOps large enough for an uncontended
// acquisition (2m+1 covers both algorithms; m suffices for Algorithm 2's
// solo fast path) and any contended attempt fails fast instead of
// waiting out a competitor's critical section.
func (d *Driver) TryDriveBounded(maxOps int) (acquired bool, err error) {
	d.streak = 0
	for budget := maxOps; budget > 0 && d.machine.Status() == core.StatusRunning; {
		n, _, err := d.step(budget)
		if err != nil {
			return false, err
		}
		budget -= n
	}
	if d.machine.Status() != core.StatusRunning {
		return true, nil
	}
	if err := d.machine.StartAbort(); err != nil {
		return false, err
	}
	if err := d.finish(); err != nil {
		return false, err
	}
	d.aborts++
	return false, nil
}

// withdraw handles a cancellation observed mid-invocation. For a lock()
// it backs the machine out via StartAbort and returns cause; a machine
// that cannot be withdrawn (an unlock(), whose erase sweep is already
// bounded) is driven to normal completion and nil is returned. Either
// way the remaining ops run without backoff or further cancellation
// checks: every one advances the machine (both sweeps are wait-free), and
// stopping halfway could leave the process's identity in a register
// nobody will ever erase.
func (d *Driver) withdraw(cause error) error {
	aborting := d.machine.StartAbort() == nil
	if err := d.finish(); err != nil {
		return err
	}
	if !aborting {
		return nil
	}
	d.aborts++
	return cause
}

// finish runs the invocation to completion with neither backoff nor
// budget: only for the wait-free back-out and erase sweeps.
func (d *Driver) finish() error {
	for d.machine.Status() == core.StatusRunning {
		if _, _, err := d.step(math.MaxInt); err != nil {
			return err
		}
	}
	return nil
}

// Stats reports the driver's lifetime counters: shared-memory ops
// executed, scheduler yields, and sleeps taken while waiting.
func (d *Driver) Stats() (ops, yields, sleeps uint64) {
	return d.ops, d.yields, d.sleeps
}

// Aborts reports how many invocations DriveContext has withdrawn.
func (d *Driver) Aborts() uint64 { return d.aborts }

// DriveAll is a convenience for sequential (single-goroutine) execution:
// it starts and completes one full invocation — lock when the machine is
// idle, unlock when it is in the critical section — and reports the
// resulting status. Scenario replays and equivalence tests use it to
// interleave whole invocations deterministically.
func (d *Driver) DriveAll() (core.Status, error) {
	switch d.machine.Status() {
	case core.StatusIdle:
		if err := d.machine.StartLock(); err != nil {
			return 0, err
		}
	case core.StatusInCS:
		if err := d.machine.StartUnlock(); err != nil {
			return 0, err
		}
	case core.StatusRunning:
		return 0, fmt.Errorf("engine: DriveAll on a machine mid-invocation")
	}
	if err := d.Drive(); err != nil {
		return 0, err
	}
	return d.machine.Status(), nil
}
