package engine

// Sweep tests: the Driver hands a whole compare&swap or read sweep to the
// machine (core.Machine.SweepCAS, SweepRead) instead of feeding it op by
// op. That must change nothing the process does to the memory. Against a
// reference loop that
// feeds every op through PendingOp, Exec and Advance, the same schedule
// must issue the identical op trace, leave byte-identical machine state
// and count the same ops — on both substrates, in every driving loop
// (Drive, TryDriveBounded, the withdraw).

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"anonmutex/internal/core"
	"anonmutex/internal/id"
	"anonmutex/internal/mset"
	"anonmutex/internal/xrand"
)

// refProc is the reference: one machine driven op by op, never through
// SweepCAS or SweepRead.
type refProc struct {
	m   core.Machine
	rec *Recorder
	buf []id.ID
	ops uint64
}

// turn executes one op or, when that op opens a sweep, ops until the
// machine leaves the sweep or max ops ran: the grouping Driver.step
// makes, found here from outside the machine. Every compare&swap and
// every read of Algorithm 2 belongs to a sweep (line 2, 3, 8–10 or 13, or
// the withdraw), which ends where the paper line or the op kind changes;
// a read sweep also ends with its read of register m-1, where a collect
// or a pass of lines 8–10 is complete.
func (r *refProc) turn(t *testing.T, max int) int {
	t.Helper()
	line := r.m.Line()
	n := 0
	for n < max {
		op := r.m.PendingOp()
		res, buf, err := Exec(r.rec, op, r.buf)
		if err != nil {
			t.Fatal(err)
		}
		r.buf = buf
		r.m.Advance(res)
		n++
		if (op.Kind != core.OpCAS && op.Kind != core.OpRead) ||
			(op.Kind == core.OpRead && op.X == r.rec.Size()-1) ||
			r.m.Status() != core.StatusRunning ||
			r.m.Line() != line || r.m.PendingOp().Kind != op.Kind {
			break
		}
	}
	r.ops += uint64(n)
	return n
}

// finish runs the current invocation to completion.
func (r *refProc) finish(t *testing.T) {
	t.Helper()
	for r.m.Status() == core.StatusRunning {
		r.turn(t, math.MaxInt)
	}
}

// sweepPair is two copies of the same n processes over two fresh memories
// of one substrate: sw driven by Drivers, ref by refProcs.
type sweepPair struct {
	sw    []*Driver
	swRec []*Recorder
	ref   []*refProc
}

func newSweepPair(t *testing.T, kind string, n, m int, mk func(me id.ID) core.Machine) *sweepPair {
	t.Helper()
	p := &sweepPair{}
	p.sw, p.swRec = substrate(t, kind, n, m, mk)
	drivers, recs := substrate(t, kind, n, m, mk)
	for i := range drivers {
		p.ref = append(p.ref, &refProc{m: drivers[i].Machine(), rec: recs[i]})
	}
	return p
}

// begin starts mach's next invocation when it is between invocations.
func begin(t *testing.T, mach core.Machine) {
	t.Helper()
	var err error
	switch mach.Status() {
	case core.StatusIdle:
		err = mach.StartLock()
	case core.StatusInCS:
		err = mach.StartUnlock()
	}
	if err != nil {
		t.Fatal(err)
	}
}

// turn gives process i one scheduler turn on both copies: one op, or a
// sweep of at most max ops.
func (p *sweepPair) turn(t *testing.T, i, max int) {
	t.Helper()
	begin(t, p.sw[i].Machine())
	begin(t, p.ref[i].m)
	n, _, err := p.sw[i].step(max)
	if err != nil {
		t.Fatal(err)
	}
	if r := p.ref[i].turn(t, max); r != n {
		t.Fatalf("proc %d: the driver's turn ran %d ops, the reference's %d", i, n, r)
	}
}

// check compares every process's trace, state and op count across the
// two copies.
func (p *sweepPair) check(t *testing.T, when string) {
	t.Helper()
	for i := range p.sw {
		sw, ref := p.swRec[i].Log, p.ref[i].rec.Log
		for k := 0; k < min(len(sw), len(ref)); k++ {
			if !reflect.DeepEqual(sw[k], ref[k]) {
				t.Fatalf("%s: proc %d op %d: driver %v, reference %v", when, i, k, sw[k], ref[k])
			}
		}
		if len(sw) != len(ref) {
			t.Fatalf("%s: proc %d: driver issued %d ops, reference %d", when, i, len(sw), len(ref))
		}
		if a, b := p.sw[i].Machine().AppendState(nil), p.ref[i].m.AppendState(nil); !bytes.Equal(a, b) {
			t.Fatalf("%s: proc %d: states differ:\n  driver    %x\n  reference %x", when, i, a, b)
		}
		if ops, _, _ := p.sw[i].Stats(); ops != p.ref[i].ops || ops != uint64(len(sw)) {
			t.Fatalf("%s: proc %d: Stats() ops %d, reference %d, trace %d", when, i, ops, p.ref[i].ops, len(sw))
		}
	}
}

// sweepCase is one Algorithm 2 configuration of the matrix: n = 2..4 at
// the smallest m > 1 in M(n), solo fast path on and off.
type sweepCase struct {
	name string
	n, m int
	mk   func(me id.ID) core.Machine
}

func sweepCases(t *testing.T) []sweepCase {
	var cases []sweepCase
	for n := 2; n <= 4; n++ {
		for _, fast := range []bool{false, true} {
			n, m, fast := n, mset.MinRMWAbove(n), fast
			cases = append(cases, sweepCase{
				name: fmt.Sprintf("n=%d/m=%d/fast=%v", n, m, fast),
				n:    n, m: m,
				mk: func(me id.ID) core.Machine {
					a, err := core.NewAlg2(me, n, m, core.Alg2Config{SoloFastPath: fast})
					if err != nil {
						t.Fatal(err)
					}
					return a
				},
			})
		}
	}
	return cases
}

// TestSweepMatchesPerOpSolo drives one process through whole sessions with
// DriveAll (the Drive loop) against the reference, on both substrates.
func TestSweepMatchesPerOpSolo(t *testing.T) {
	for _, kind := range []string{"hardware", "simulated"} {
		for _, c := range sweepCases(t) {
			t.Run(kind+"/"+c.name, func(t *testing.T) {
				p := newSweepPair(t, kind, c.n, c.m, c.mk)
				for s := 0; s < 3; s++ {
					for _, want := range []core.Status{core.StatusInCS, core.StatusIdle} {
						if st, err := p.sw[0].DriveAll(); err != nil || st != want {
							t.Fatalf("session %d: DriveAll = %v, %v; want %v", s, st, err, want)
						}
						begin(t, p.ref[0].m)
						p.ref[0].finish(t)
					}
				}
				p.check(t, "solo")
			})
		}
	}
}

// schedule gives seeded random turns of at most max ops to the processes
// in procs until each has completed sessions lock/unlock cycles, or stop
// reports true before a turn.
func (p *sweepPair) schedule(t *testing.T, procs []int, seed uint64, max, sessions int, stop func(turn int) bool) {
	t.Helper()
	rng := xrand.New(seed)
	done := make([]int, len(p.sw))
	for turn := 0; ; turn++ {
		if stop != nil && stop(turn) {
			return
		}
		var live []int
		for _, i := range procs {
			if done[i] < sessions {
				live = append(live, i)
			}
		}
		if len(live) == 0 {
			return
		}
		if turn > 200_000 {
			t.Fatalf("seed %d: sessions not done after %d turns", seed, turn)
		}
		i := live[rng.Intn(len(live))]
		mach := p.sw[i].Machine()
		unlocking := mach.Status() == core.StatusInCS ||
			(mach.Status() == core.StatusRunning && mach.Line() == 13)
		p.turn(t, i, max)
		if unlocking && mach.Status() == core.StatusIdle {
			done[i]++
		}
	}
}

func allProcs(n int) []int {
	procs := make([]int, n)
	for i := range procs {
		procs[i] = i
	}
	return procs
}

// TestSweepMatchesPerOpInterleaved runs seeded random interleavings of
// whole turns — one op, or one sweep, a read pass included — against the
// reference.
func TestSweepMatchesPerOpInterleaved(t *testing.T) {
	for _, kind := range []string{"hardware", "simulated"} {
		for _, c := range sweepCases(t) {
			t.Run(kind+"/"+c.name, func(t *testing.T) {
				for seed := uint64(1); seed <= 8; seed++ {
					p := newSweepPair(t, kind, c.n, c.m, c.mk)
					p.schedule(t, allProcs(c.n), seed, math.MaxInt, 3, nil)
					p.check(t, fmt.Sprintf("seed %d", seed))
				}
			})
		}
	}
}

// TestSweepWithdrawAtEveryBoundary cancels process 0 at every boundary of
// its turns — between any two of its sweeps or ops — solo and under a
// seeded interleaving: DriveContext's withdraw (or, in unlock(), its
// completion) must match the reference's StartAbort and per-op back-out,
// and the survivors must go on to match too.
func TestSweepWithdrawAtEveryBoundary(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, kind := range []string{"hardware", "simulated"} {
		for _, c := range sweepCases(t) {
			for _, solo := range []bool{true, false} {
				procs := allProcs(c.n)
				if solo {
					procs = procs[:1]
				}
				t.Run(fmt.Sprintf("%s/%s/solo=%v", kind, c.name, solo), func(t *testing.T) {
					for k := 0; ; k++ {
						p := newSweepPair(t, kind, c.n, c.m, c.mk)
						// Run until k turns have passed with process 0
						// mid-invocation: each boundary between two of its
						// own turns is among them.
						own := 0
						p.schedule(t, procs, 7, math.MaxInt, 2, func(int) bool {
							if p.sw[0].Machine().Status() != core.StatusRunning {
								return false
							}
							if own == k {
								return true
							}
							own++
							return false
						})
						if p.sw[0].Machine().Status() != core.StatusRunning {
							return // process 0 finished its sessions in fewer turns
						}
						err := p.sw[0].DriveContext(cancelled)
						ref := p.ref[0]
						var wantAborts uint64
						if ref.m.StartAbort() == nil {
							wantAborts = 1
						}
						ref.finish(t)
						if (wantAborts == 1) != errors.Is(err, context.Canceled) || p.sw[0].Aborts() != wantAborts {
							t.Fatalf("k=%d: DriveContext = %v with %d aborts, want %d", k, err, p.sw[0].Aborts(), wantAborts)
						}
						p.check(t, fmt.Sprintf("k=%d withdrawn", k))
						p.schedule(t, procs[1:], 9, math.MaxInt, 2, nil)
						p.check(t, fmt.Sprintf("k=%d survivors", k))
					}
				})
			}
		}
	}
}

// TestTryDriveBoundedCapsSweeps runs TryLock's call, TryDriveBounded(2m+2),
// at the service configuration n = 8, m = 11 against memories left by
// seeded interleavings of the other seven processes, and at every smaller
// budget. The attempt must match the reference cut at the same budget, so
// a sweep stops where the budget does: before the withdraw, at most the
// budget's ops ran, and some seeds must end their budget mid-sweep.
func TestTryDriveBoundedCapsSweeps(t *testing.T) {
	const n, m = 8, 11
	mk := func(me id.ID) core.Machine {
		a, err := core.NewAlg2(me, n, m, core.Alg2Config{SoloFastPath: true})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	for _, kind := range []string{"hardware", "simulated"} {
		t.Run(kind, func(t *testing.T) {
			cutMidSweep := 0
			for seed := uint64(1); seed <= 24; seed++ {
				for budget := 0; budget <= 2*m+2; budget++ {
					p := newSweepPair(t, kind, n, m, mk)
					// The others move one op a turn, so the memory can be
					// left mid-sweep, split among several owners.
					turns := int(xrand.New(seed).Uint64n(400))
					p.schedule(t, allProcs(n)[1:], seed, 1, math.MaxInt, func(turn int) bool { return turn == turns })

					sw, ref := p.sw[0], p.ref[0]
					begin(t, sw.Machine())
					begin(t, ref.m)
					acquired, err := sw.TryDriveBounded(budget)
					if err != nil {
						t.Fatal(err)
					}
					left := budget
					for left > 0 && ref.m.Status() == core.StatusRunning {
						left -= ref.turn(t, left)
					}
					attempt := len(ref.rec.Log)
					midSweep := attempt > 0 && ref.m.Status() == core.StatusRunning &&
						ref.m.PendingOp().Kind == core.OpCAS && ref.rec.Log[attempt-1].Kind == core.OpCAS
					if ref.m.Status() == core.StatusRunning {
						if err := ref.m.StartAbort(); err != nil {
							t.Fatal(err)
						}
						ref.finish(t)
					}
					if acquired != (ref.m.Status() == core.StatusInCS) {
						t.Fatalf("seed %d budget %d: acquired %v, reference status %v", seed, budget, acquired, ref.m.Status())
					}
					if attempt > budget {
						t.Fatalf("seed %d budget %d: %d ops before the withdraw", seed, budget, attempt)
					}
					if !acquired && midSweep && budget == 2*m+2 {
						cutMidSweep++
					}
					p.check(t, fmt.Sprintf("seed %d budget %d", seed, budget))
				}
			}
			t.Logf("%d of 24 seeds ended the 2m+2 budget inside a sweep", cutMidSweep)
			if cutMidSweep == 0 {
				t.Fatal("no seed ended TryLock's 2m+2 budget inside a compare&swap sweep; the cap is untested")
			}
		})
	}
}
