package lockmgr

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"anonmutex"
	"anonmutex/internal/amem"
)

// heapCost builds something, keeps it alive across two collections, and
// returns what the live heap gained: bytes (size-class rounded, as the
// allocator and the RSS see them) and objects.
func heapCost(build func() any) (bytes, objects float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	keep := build()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)
	return float64(after.HeapAlloc) - float64(before.HeapAlloc),
		float64(after.HeapObjects) - float64(before.HeapObjects)
}

// TestBytesPerLock is the space budget of one resident named lock at the
// service's defaults (Algorithm 2, n = 8, m = 11, one client per name —
// so one materialized handle), measured, not computed: 16 384 names go
// through AcquireLeaseCtx/Release and the live heap is read after two
// collections. The per-layer rows are built bottom-up from the same
// constructors the manager calls, each row the difference to the one
// below it, so the next change to a layer's size has a before column.
// Name strings are made before the first reading: they belong to the
// caller (the wire decoder, in the service), not to a layer here.
//
// The ceilings are the totals the contiguous handle was landed against
// (DESIGN.md "The space budget": 878 B in 12 objects before, 2 094 B in
// 19 before the register block and the one-object entry), with 2–3 % of
// byte slack: the name table's share moves with the map implementation
// (686 B a lock on Go 1.24's, 688 B on the classic one). The rest are
// size-class sums, so a toolchain that moves a size class moves them:
// that is a red build to look at, not noise.
func TestBytesPerLock(t *testing.T) {
	const (
		locks      = 16384
		maxBytes   = 700
		maxObjects = 5
		// each handle past the first: a name with k concurrent clients has k
		maxHandleBytes   = 270
		maxHandleObjects = 2
		// objSlack is what a reading counts beside the layers' objects:
		// the name table's share of the map's own (≈ 0.007 a lock), and
		// what the runtime allocates meanwhile.
		objSlack = 0.05
	)
	cfg, err := Config{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	n, m := cfg.HandlesPerLock, anonmutex.MinRegistersRMW(cfg.HandlesPerLock)

	type row struct {
		layer          string
		bytes, objects float64
	}
	var rows []row
	below := row{}
	// own is what the slice that keeps a row's objects reachable costs
	// per lock: the test's, not the layer's.
	add := func(layer string, own uintptr, build func() any) {
		b, o := heapCost(build)
		b, o = b/locks-float64(own), o/locks
		rows = append(rows, row{layer, b - below.bytes, o - below.objects})
		below = row{"", b, o}
	}
	type lockAndHandles struct {
		l *anonmutex.RMWLock
		p [2]*anonmutex.RMWProcess
	}
	newLocks := func(handles int) any {
		out := make([]lockAndHandles, locks)
		for i := range out {
			l, err := anonmutex.NewRMWLock(n, anonmutex.WithSeed(uint64(i)))
			if err != nil {
				t.Fatal(err)
			}
			out[i].l = l
			for h := 0; h < handles; h++ {
				if out[i].p[h], err = l.NewProcess(); err != nil {
					t.Fatal(err)
				}
			}
		}
		return out
	}
	// The Lock holds the register block's header by value: the row is
	// the block.
	add("registers", unsafe.Sizeof(amem.Memory{}), func() any {
		out := make([]amem.Memory, locks)
		for i := range out {
			out[i].Init(m)
		}
		return out
	})
	own := unsafe.Sizeof(lockAndHandles{})
	add("lock", own, func() any { return newLocks(0) })
	add("first handle", own, func() any { return newLocks(1) })
	oneHandle := below
	add("second handle", own, func() any { return newLocks(2) })
	handle := rows[len(rows)-1]

	names := make([]string, locks)
	for i := range names {
		names[i] = fmt.Sprintf("space/%05d", i)
	}
	// Twice the default table bound: names hash unevenly over the shards
	// and every one of them has to stay resident.
	var mgr *Manager
	below = oneHandle
	add("lockmgr entry", 0, func() any {
		mgr, err = New(Config{MaxLocksPerShard: 2 * cfg.MaxLocksPerShard})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			l, err := mgr.AcquireLeaseCtx(context.Background(), name)
			if err != nil {
				t.Fatal(err)
			}
			if err := mgr.Release(l); err != nil {
				t.Fatal(err)
			}
		}
		return mgr
	})
	total := below
	if c := mgr.Counters(); c.ResidentLocks != locks || c.Evictions != 0 {
		t.Fatalf("resident = %d, evictions = %d; want all %d names resident", c.ResidentLocks, c.Evictions, locks)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	t.Logf("n = %d, m = %d, %d resident locks, one handle each", n, m, locks)
	t.Logf("%-16s %8s %8s", "layer", "B/lock", "obj/lock")
	for _, r := range rows {
		if r.layer == "second handle" {
			t.Logf("%-16s %8.0f %8.1f   (not in the total: a name with one client never makes it; ceiling %d B, %d objects)",
				r.layer, r.bytes, r.objects, maxHandleBytes, maxHandleObjects)
			continue
		}
		t.Logf("%-16s %8.0f %8.1f", r.layer, r.bytes, r.objects)
	}
	t.Logf("%-16s %8.0f %8.1f   (ceiling %d B, %d objects)", "resident lock", total.bytes, total.objects, maxBytes, maxObjects)
	if total.bytes > maxBytes || total.objects > maxObjects+objSlack {
		t.Errorf("a resident lock costs %.0f B in %.3f objects, want <= %d B and <= %d objects",
			total.bytes, total.objects, maxBytes, maxObjects)
	}
	if handle.bytes > maxHandleBytes || handle.objects > maxHandleObjects+objSlack {
		t.Errorf("a further handle costs %.0f B in %.3f objects, want <= %d B and <= %d objects",
			handle.bytes, handle.objects, maxHandleBytes, maxHandleObjects)
	}
}

// TestShardFillsCacheLines: a shard's size is a multiple of 64 B, so
// shards, which every acquire and release on their names write, never
// share a cache line with a neighbour.
func TestShardFillsCacheLines(t *testing.T) {
	if sz := unsafe.Sizeof(shard{}); sz%64 != 0 {
		t.Errorf("shard is %d B, want a multiple of 64", sz)
	}
}
