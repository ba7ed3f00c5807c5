package engine

import (
	"context"
	"fmt"
	"math"
	"time"

	"anonmutex/internal/core"
	"anonmutex/internal/id"
)

// Backoff tunes how the Driver waits. The zero value means
// DefaultBackoff. A step makes progress when it changes the shared
// memory (a write, or a compare&swap that swapped); while the machine
// makes none the Driver
//
//  1. spins for the first SpinOps ops — the common uncontended case, and
//     a short contended one, complete here without entering the
//     scheduler;
//  2. then parks after every step that makes no progress: it registers
//     on the memory, re-runs one pass of its wait (a store it missed
//     before registering is in that pass), and blocks until a store that
//     can let it in wakes it, its context ends, or SleepMax passes.
//
// Any progress restarts the spin. A sweep is one step: each of its ops
// counts, and the Driver parks at most once, after it ends.
type Backoff struct {
	// SpinOps is the number of non-progressing ops executed back-to-back
	// before the driver parks (default 64).
	SpinOps int
	// SleepMax caps one park (default 1ms): a waiter no store wakes
	// re-reads the memory after this long, so liveness never rests on the
	// wake. The cap is a backstop, not a poll: each expiry costs a
	// goroutine wake and a pass, and at the 256µs the sleeps it replaced
	// were capped at, expiries in waits of a few hundred µs (a contended
	// service key) cost 10–15 % of the key's CPU. 1ms is about what one
	// of those 256µs sleeps took on a 2-vCPU host.
	SleepMax time.Duration
}

// DefaultBackoff returns the production backoff policy.
func DefaultBackoff() Backoff {
	return Backoff{SpinOps: 64, SleepMax: time.Millisecond}
}

func (b *Backoff) normalize() {
	d := DefaultBackoff()
	if b.SpinOps <= 0 {
		b.SpinOps = d.SpinOps
	}
	if b.SleepMax <= 0 {
		b.SleepMax = d.SleepMax
	}
}

// Driver runs one machine's invocations against one Executor: the single
// shared drive loop behind both real locks (and any other blocking use of
// the machines). A Driver belongs to one process; it is not safe for
// concurrent use.
//
// The Driver's unit of work is a step: one op, or — when the pending op
// opens one of Algorithm 2's sweeps (line 2's claim, line 3's collect,
// a pass of lines 8–10, line 13's erase, the withdraw) — the rest of that
// sweep, which the machine issues back to back through Machine.SweepCAS
// or Machine.SweepRead. The ops and their order are those of op-by-op
// driving; only the Driver's own bookkeeping moves to step boundaries.
// Cancellation is polled, the backoff applied and parked waiters
// notified once per step: at most m ops late during a sweep. A step that
// changed nothing adds all its ops to the no-progress streak. Algorithm 1
// waits on one snapshot a pass, so it too parks at most once a pass.
// TryDriveBounded caps a sweep at its remaining budget, so its bound
// stays exact.
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
	// Drive call: a contended Lock must not leave the driver parking, or
	// the following Unlock would park while holding the critical section.
	streak int
	// erasing is set by a step that erased and cleared by the Notify that
	// follows the erase run's last step.
	erasing bool

	// Statistics.
	ops    uint64 // total ops executed
	parks  uint64 // parks that blocked
	wakes  uint64 // parks a store's wake ended
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

// drive is the loop shared by Drive and DriveContext: execute steps,
// parking while they make no progress, until the invocation completes or
// done (when non-nil) fires at a step boundary or during a park, reported
// as cancelled=true with the machine still Running. The nil-done case —
// every plain Lock/Unlock, including the whole uncontended fast path —
// runs a dedicated tight loop with no cancellation poll on the step
// boundary.
func (d *Driver) drive(done <-chan struct{}) (cancelled bool, err error) {
	d.streak = 0
	if done == nil {
		for d.machine.Status() == core.StatusRunning {
			if err := d.execOne(nil); err != nil {
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
		if err := d.execOne(done); err != nil {
			return false, err
		}
	}
	return false, nil
}

// step executes the machine's pending op and feeds the result back — or,
// when that op opens a sweep, lets the machine run the sweep (at most
// budget ops) in one call. It reports how many ops ran and whether any
// changed the shared memory (a write, or a CAS that swapped).
//
// A step that stored notifies the memory's parked waiters. An erase run
// (line 13's sweep, the withdraw, a resign, a shrink) notifies once, at
// the step that leaves its paper line: its last erase may be the one that
// empties the memory. A write of idᵢ notifies at once; a compare&swap
// claim does not, since the ⊥ it took was stored by a step that did.
func (d *Driver) step(budget int) (n int, progress bool, err error) {
	op, line := d.machine.PendingOp(), d.machine.Line()
	switch op.Kind {
	case core.OpCAS:
		n, progress = d.machine.SweepCAS(d.exec, budget)
	case core.OpRead:
		n = d.machine.SweepRead(d.exec, budget)
	}
	if n == 0 {
		res, buf, err := Exec(d.exec, op, d.snapBuf)
		if err != nil {
			return 0, false, err
		}
		d.snapBuf = buf
		d.machine.Advance(res)
		n, progress = 1, op.Kind == core.OpWrite || res.Swapped
	}
	d.ops += uint64(n)
	switch {
	case progress && op.Val.IsNone() && op.New.IsNone():
		d.erasing = true
	case op.Kind == core.OpWrite:
		d.exec.Notify(false)
	}
	if d.erasing && (d.machine.Status() != core.StatusRunning || d.machine.Line() != line) {
		d.erasing = false
		d.exec.Notify(true)
	}
	return n, progress, nil
}

// execOne executes one step and, once the no-progress streak has passed
// the spin phase, parks after it.
func (d *Driver) execOne(done <-chan struct{}) error {
	n, progress, err := d.step(math.MaxInt)
	if err != nil {
		return err
	}
	if progress {
		// The shared memory changed: the protocol is moving. Restart
		// from the spin phase.
		d.streak = 0
		return nil
	}
	d.streak += n
	if d.streak <= d.backoff.SpinOps || d.machine.Status() != core.StatusRunning {
		// Spinning, or the invocation just completed: don't wait on its
		// last op.
		return nil
	}
	return d.park(done)
}

// park registers the process on its memory, re-runs one pass of its wait
// — one step if it waits absent (a read pass or a snapshot), two if it
// may hold registers (Algorithm 2's claim sweep and collect) — and blocks
// only if that pass brought the machine back to the paper line it
// registered at: a pass that moved it on (the wait ended, or it must
// resign) ends the park, and the next step without progress parks anew.
// A park the cap ends stays registered, re-runs the pass and blocks
// again; a wake or a cancellation returns to the drive loop. See amem's
// park.go for why a store between the last step and the registration is
// not lost.
func (d *Driver) park(done <-chan struct{}) error {
	absent, line := d.machine.Absent(), d.machine.Line()
	p := d.exec.Park(!absent)
	passes := 2
	if absent {
		passes = 1
	}
	for {
		for k := passes; k > 0; k-- {
			n, progress, err := d.step(math.MaxInt)
			if err != nil || progress || d.machine.Status() != core.StatusRunning {
				p.Cancel()
				if progress {
					d.streak = 0
				}
				return err
			}
			d.streak += n
		}
		if d.machine.Line() != line {
			p.Cancel()
			return nil
		}
		d.parks++
		if p.Wait(done, d.backoff.SleepMax) {
			d.wakes++
			return nil
		}
		select {
		case <-done:
			p.Cancel()
			return nil
		default:
		}
	}
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
// The waiting policy matches Drive: spin, then park, with the
// cancellation checked at every step boundary — every op, except inside
// a sweep of at most m ops — and by the park itself, which a cancelled
// waiter leaves at once.
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
// never parks, which makes it the primitive behind
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
// nobody will ever erase. A withdrawn waiter may have been woken by an
// erase it will never act on, so it passes one wake on as an erase does.
func (d *Driver) withdraw(cause error) error {
	aborting := d.machine.StartAbort() == nil
	if err := d.finish(); err != nil {
		return err
	}
	if !aborting {
		return nil
	}
	d.exec.Notify(true)
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
// executed, parks that blocked, and how many of those a store's wake
// ended (the rest ended at the cap or on cancellation).
func (d *Driver) Stats() (ops, parks, wakes uint64) {
	return d.ops, d.parks, d.wakes
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
