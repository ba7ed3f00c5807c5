package amem

import (
	"testing"
	"time"

	"anonmutex/internal/id"
	"anonmutex/internal/perm"
)

func parkViews(t *testing.T, m, k int) []*View {
	t.Helper()
	mem := New(m)
	gen := id.NewGenerator()
	views := make([]*View, k)
	for i := range views {
		views[i] = newTestView(t, mem, gen.MustNew(), perm.Identity(m))
	}
	return views
}

// woken reports whether p has a wake waiting: a woken registration's
// Wait returns true at once, an unwoken one after the 1 ms cap, still
// registered.
func woken(p *Parking) bool { return p.Wait(nil, time.Millisecond) }

// TestNotifyWakesEveryHolderAndOneAbsent pins who a store wakes: a store
// of idᵢ every parked holder, an erase also the longest-parked absent
// waiter, and nobody parked on another memory.
func TestNotifyWakesEveryHolderAndOneAbsent(t *testing.T) {
	const m = 8 // the park word needs a line of its own
	vs := parkViews(t, m, 5)
	other := parkViews(t, m, 1)[0]
	absent1, absent2 := vs[0].Park(false), vs[1].Park(false)
	holder := vs[2].Park(true)
	elsewhere := other.Park(true)
	if got := vs[4].parkWord().Load(); got != 2*parkAbsent+parkHolder {
		t.Fatalf("park word %#x, want two absent and one holder", got)
	}

	vs[4].Notify(false) // a claim
	if !woken(holder) {
		t.Error("a claim did not wake the parked holder")
	}
	if woken(absent1) || woken(absent2) {
		t.Error("a claim woke an absent waiter")
	}
	holder = vs[2].Park(true)

	vs[4].Notify(true) // an erase
	if !woken(holder) || !woken(absent1) {
		t.Error("an erase did not wake the holder and the first absent waiter")
	}
	if woken(absent2) {
		t.Error("an erase woke a second absent waiter")
	}
	if woken(elsewhere) {
		t.Error("a store woke a waiter parked on another memory")
	}

	vs[4].Notify(true)
	if !woken(absent2) {
		t.Error("the next erase did not wake the remaining absent waiter")
	}
	elsewhere.Cancel()
	if got := vs[4].parkWord().Load(); got != 0 {
		t.Errorf("park word %#x with nobody parked, want 0", got)
	}
	if got := other.parkWord().Load(); got != 0 {
		t.Errorf("the other memory's park word %#x with nobody parked, want 0", got)
	}
}

// TestCancelConsumesARacingWake: a wake sent between a registration's
// last Wait and its Cancel is consumed, so the pooled node carries no
// stale wake into its next park.
func TestCancelConsumesARacingWake(t *testing.T) {
	vs := parkViews(t, 3, 2)
	p := vs[0].Park(false)
	vs[1].Notify(true)
	p.Cancel()
	q := vs[0].Park(false) // the same node, from the free list
	if q != p {
		t.Fatal("the park did not reuse the freed node")
	}
	if woken(q) {
		t.Error("a fresh park started with a stale wake")
	}
	q.Cancel()
}

// TestParkAllocatesNothing: nodes are pooled, so a steady stream of parks
// allocates nothing.
func TestParkAllocatesNothing(t *testing.T) {
	vs := parkViews(t, 11, 2)
	vs[0].Park(false).Cancel() // make the node
	allocs := testing.AllocsPerRun(1000, func() {
		p := vs[0].Park(false)
		vs[1].Notify(true)
		if !p.Wait(nil, time.Minute) {
			t.Fatal("no wake")
		}
	})
	if allocs != 0 {
		t.Errorf("%.1f allocations a park, want 0", allocs)
	}
}
