// Package strawman implements a deliberately incorrect symmetric mutual
// exclusion protocol, used to give the verification tooling negative
// teeth.
//
// The Greedy protocol looks plausible: sweep compare&swap over the memory
// claiming every ⊥ register, read everything, and enter the critical
// section as soon as you are tied for the most-present identity. Its flaw
// is exactly the tie the paper's m ∈ M(n) condition and majority rule
// exist to prevent: two processes can each own half the memory, both tie
// for most-present, and both enter together.
//
// Under the Theorem 5 ring construction (ℓ | m, rotations, lock step) the
// Greedy protocol exhibits the lower bound's first horn — *all ℓ processes
// enter the critical section in the same round* — while the paper's
// algorithms exhibit the second horn (livelock). Together they make the
// theorem's "either/or" executable.
package strawman

import (
	"fmt"

	"anonmutex/internal/core"
	"anonmutex/internal/id"
)

type phase uint8

const (
	phIdle phase = iota + 1
	phCAS
	phCollect
	phInCS
	phUnlock
	phAbort
)

// Greedy is the broken protocol machine. It implements core.Machine.
type Greedy struct {
	me     id.ID
	m      int
	status core.Status
	phase  phase
	view   []id.ID
	cursor int

	lockSteps    int
	ownedAtEntry int
}

var _ core.Machine = (*Greedy)(nil)

// New creates a Greedy machine for process me over m registers.
func New(me id.ID, m int) *Greedy {
	if me.IsNone() || m < 1 {
		panic(fmt.Sprintf("strawman: invalid arguments (me=%v, m=%d)", me, m))
	}
	return &Greedy{me: me, m: m, status: core.StatusIdle, phase: phIdle, view: make([]id.ID, m)}
}

// Me implements core.Machine.
func (g *Greedy) Me() id.ID { return g.me }

// Status implements core.Machine.
func (g *Greedy) Status() core.Status { return g.status }

// StartLock implements core.Machine.
func (g *Greedy) StartLock() error {
	if g.status != core.StatusIdle {
		return fmt.Errorf("strawman: StartLock in status %v", g.status)
	}
	g.status = core.StatusRunning
	g.phase = phCAS
	g.cursor = 0
	g.lockSteps = 0
	return nil
}

// StartUnlock implements core.Machine.
func (g *Greedy) StartUnlock() error {
	if g.status != core.StatusInCS {
		return fmt.Errorf("strawman: StartUnlock in status %v", g.status)
	}
	g.status = core.StatusRunning
	g.phase = phUnlock
	g.cursor = 0
	return nil
}

// StartAbort implements core.Machine: withdraw from an in-progress
// lock() by running the unlock erase sweep early — even the broken
// protocol backs out cleanly, so abort tooling can run against it.
func (g *Greedy) StartAbort() error {
	if g.status != core.StatusRunning || g.phase == phUnlock {
		return fmt.Errorf("strawman: StartAbort in status %v (withdraw applies only inside lock())", g.status)
	}
	g.cursor = 0
	g.phase = phAbort
	return nil
}

// PendingOp implements core.Machine.
func (g *Greedy) PendingOp() core.Op {
	switch g.phase {
	case phCAS:
		return core.Op{Kind: core.OpCAS, X: g.cursor, Old: id.None, New: g.me}
	case phCollect:
		return core.Op{Kind: core.OpRead, X: g.cursor}
	case phUnlock, phAbort:
		return core.Op{Kind: core.OpCAS, X: g.cursor, Old: g.me, New: id.None}
	default:
		panic(fmt.Sprintf("strawman: PendingOp in phase %d", g.phase))
	}
}

// SweepCAS implements core.Machine: the broken protocol's sweeps are
// driven op by op.
func (g *Greedy) SweepCAS(core.CASMemory, int) (int, bool) { return 0, false }

// SweepRead implements core.Machine: the collect is driven op by op too.
func (g *Greedy) SweepRead(core.ReadMemory, int) int { return 0 }

// Absent implements core.Machine: the strawman never parks absent.
func (g *Greedy) Absent() bool { return false }

// Advance implements core.Machine.
func (g *Greedy) Advance(res core.OpResult) core.Status {
	if g.status != core.StatusRunning {
		panic(fmt.Sprintf("strawman: Advance in status %v", g.status))
	}
	if g.phase != phUnlock {
		g.lockSteps++
	}
	switch g.phase {
	case phCAS:
		g.cursor++
		if g.cursor == g.m {
			g.cursor = 0
			g.phase = phCollect
		}
	case phCollect:
		g.view[g.cursor] = res.Val
		g.cursor++
		if g.cursor == g.m {
			g.afterCollect()
		}
	case phUnlock, phAbort:
		g.cursor++
		if g.cursor == g.m {
			g.status = core.StatusIdle
			g.phase = phIdle
		}
	default:
		panic(fmt.Sprintf("strawman: Advance in phase %d", g.phase))
	}
	return g.status
}

// afterCollect applies the broken entry rule: enter when tied for the
// most-present identity (instead of requiring a strict majority).
func (g *Greedy) afterCollect() {
	owned, most := 0, 0
	for i, v := range g.view {
		if v.Equal(g.me) {
			owned++
		}
		if v.IsNone() {
			continue
		}
		dup := false
		for j := 0; j < i; j++ {
			if g.view[j].Equal(v) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		c := 0
		for j := i; j < len(g.view); j++ {
			if g.view[j].Equal(v) {
				c++
			}
		}
		if c > most {
			most = c
		}
	}
	if owned > 0 && owned >= most {
		g.ownedAtEntry = owned
		g.status = core.StatusInCS
		g.phase = phInCS
		return
	}
	g.cursor = 0
	g.phase = phCAS
}

// Line implements core.Machine (no paper correspondence; phases are
// numbered 1-4 for traces).
func (g *Greedy) Line() int { return int(g.phase) }

// LockSteps implements core.Machine.
func (g *Greedy) LockSteps() int { return g.lockSteps }

// OwnedAtEntry implements core.Machine.
func (g *Greedy) OwnedAtEntry() int { return g.ownedAtEntry }

// Clone implements core.Machine.
func (g *Greedy) Clone() core.Machine {
	c := *g
	c.view = make([]id.ID, len(g.view))
	copy(c.view, g.view)
	return &c
}

// AppendState implements core.Machine.
func (g *Greedy) AppendState(dst []byte) []byte {
	dst = append(dst, byte(g.status), byte(g.phase))
	h := id.Handle(g.me)
	dst = append(dst, byte(h>>8), byte(h), byte(g.cursor>>8), byte(g.cursor))
	for _, v := range g.view {
		hv := id.Handle(v)
		dst = append(dst, byte(hv>>8), byte(hv))
	}
	return dst
}
