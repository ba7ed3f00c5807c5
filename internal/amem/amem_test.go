package amem

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"anonmutex/internal/id"
	"anonmutex/internal/perm"
	"anonmutex/internal/xrand"
)

func newTestView(t *testing.T, mem *Memory, me id.ID, p perm.Perm) *View {
	t.Helper()
	v, err := mem.NewView(me, p)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestNewPanicsOnBadSize(t *testing.T) {
	for _, m := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", m)
				}
			}()
			New(m)
		}()
	}
}

// TestMemoryLayout pins the register block's shape: it starts on a cache
// line, registers are one word apart, and the block is whole lines long,
// so one lock's registers share lines and two locks' never do. The
// second half pins what the lazy double-scan buffers must not become: a
// per-snapshot allocation.
func TestMemoryLayout(t *testing.T) {
	addr := func(mem *Memory, x int) uintptr { return uintptr(unsafe.Pointer(&mem.regs[x])) }
	for _, m := range []int{1, 3, 11, 17} {
		// Back to back, and enough of them to fill an allocator span, so
		// neighbours in a span are among the pairs compared.
		mems := make([]*Memory, 128)
		for i := range mems {
			mems[i] = New(m)
		}
		lines := make(map[uintptr]int)
		for i, mem := range mems {
			if mem.Size() != m {
				t.Fatalf("m=%d: Size() = %d", m, mem.Size())
			}
			if a := addr(mem, 0); a%lineBytes != 0 {
				t.Fatalf("m=%d: memory %d starts at %#x, %d bytes into a line", m, i, a, a%lineBytes)
			}
			for x := 1; x < m; x++ {
				if d := addr(mem, x) - addr(mem, x-1); d != 8 {
					t.Fatalf("m=%d: registers %d and %d are %d bytes apart, want 8", m, x-1, x, d)
				}
			}
			for x := 0; x < m; x++ {
				line := addr(mem, x) / lineBytes
				if j, taken := lines[line]; taken && j != i {
					t.Fatalf("m=%d: memories %d and %d share the line at %#x", m, j, i, line*lineBytes)
				}
				lines[line] = i
			}
		}
		if want := len(mems) * ((m + regsPerLine - 1) / regsPerLine); len(lines) != want {
			t.Errorf("m=%d: %d memories span %d lines, want %d", m, len(mems), len(lines), want)
		}
	}

	const m = 11
	mem := New(m)
	v := newTestView(t, mem, id.NewGenerator().MustNew(), perm.Identity(m))
	if v.scan != nil {
		t.Error("a view that has not taken a snapshot already carries scan buffers")
	}
	buf := v.Snapshot(nil) // the first one makes them
	if allocs := testing.AllocsPerRun(100, func() { buf = v.Snapshot(buf) }); allocs != 0 {
		t.Errorf("%.1f allocations per snapshot after the first, want 0", allocs)
	}
}

func TestInitialMemoryAllBottom(t *testing.T) {
	mem := New(7)
	if mem.Size() != 7 {
		t.Fatalf("Size = %d", mem.Size())
	}
	for x, val := range mem.ObserveValues() {
		if !val.IsNone() {
			t.Errorf("register %d initially %v, want ⊥", x, val)
		}
	}
}

func TestViewValidation(t *testing.T) {
	mem := New(3)
	g := id.NewGenerator()
	me := g.MustNew()
	if _, err := mem.NewView(id.None, perm.Identity(3)); err == nil {
		t.Error("view with ⊥ identity accepted")
	}
	if _, err := mem.NewView(me, perm.Identity(4)); err == nil {
		t.Error("view with wrong-size permutation accepted")
	}
	if _, err := mem.NewView(me, perm.Perm{0, 0, 1}); err == nil {
		t.Error("view with invalid permutation accepted")
	}
	if _, err := mem.NewView(me, perm.Identity(3)); err != nil {
		t.Errorf("valid view rejected: %v", err)
	}
}

// TestViewKeepsPermCopy pins the compact permutation: the view copies
// what it is given, and Perm hands back an equal copy of its own.
func TestViewKeepsPermCopy(t *testing.T) {
	p := perm.Rotation(5, 2)
	v := newTestView(t, New(5), id.NewGenerator().MustNew(), p)
	want := p.Clone()
	p[0], p[1] = p[1], p[0]
	got := v.Perm()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Perm() = %v after the caller's slice changed, want %v", got, want)
	}
	got[0], got[1] = got[1], got[0]
	if fmt.Sprint(v.Perm()) != fmt.Sprint(want) {
		t.Fatalf("changing Perm()'s result changed the view: %v", v.Perm())
	}
}

func TestReadWriteThroughPermutation(t *testing.T) {
	// Two processes with the paper's Table I permutations (local→physical
	// direction, i.e. the inverses of the printed rows).
	mem := New(3)
	g := id.NewGenerator()
	p, q := g.MustNew(), g.MustNew()
	fpPrinted, _ := perm.FromOneBased([]int{2, 3, 1})
	fqPrinted, _ := perm.FromOneBased([]int{3, 1, 2})
	vp := newTestView(t, mem, p, fpPrinted.Inverse())
	vq := newTestView(t, mem, q, fqPrinted.Inverse())

	// p writes its id into its local R[2] (0-based x=1): physical R[1].
	vp.Write(1, p)
	if got := mem.Observe(0).Val; !got.Equal(p) {
		t.Fatalf("physical R[1] = %v, want %v", got, p)
	}
	// q reads the same cell under its local name R[3] (0-based x=2).
	if got := vq.Read(2); !got.Equal(p) {
		t.Fatalf("q's R[3] = %v, want %v", got, p)
	}
	// q's other local names see ⊥.
	if !vq.Read(0).IsNone() || !vq.Read(1).IsNone() {
		t.Error("q observes writes in wrong cells")
	}
}

func TestWriteStamps(t *testing.T) {
	mem := New(2)
	g := id.NewGenerator()
	me := g.MustNew()
	v := newTestView(t, mem, me, perm.Identity(2))
	v.Write(0, me)
	s := mem.Observe(0)
	if !s.Writer.Equal(me) || s.Seq != 1 {
		t.Fatalf("first write stamp = (%v, %d), want (%v, 1)", s.Writer, s.Seq, me)
	}
	v.Write(0, id.None) // shrink-style ⊥ write is stamped too
	s = mem.Observe(0)
	if !s.Val.IsNone() || !s.Writer.Equal(me) || s.Seq != 2 {
		t.Fatalf("⊥ write stamp = %+v, want (⊥, %v, 2)", s, me)
	}
}

func TestCASThroughPermutation(t *testing.T) {
	mem := New(5)
	g := id.NewGenerator()
	p, q := g.MustNew(), g.MustNew()
	rot := perm.Rotation(5, 2)
	vp := newTestView(t, mem, p, rot)
	vq := newTestView(t, mem, q, perm.Identity(5))

	if !vp.CompareAndSwap(0, id.None, p) {
		t.Fatal("CAS on fresh register failed")
	}
	// p's local 0 is physical 2.
	if got := mem.Observe(2).Val; !got.Equal(p) {
		t.Fatalf("physical R[3] = %v, want %v", got, p)
	}
	// q sees it at its local 2 and cannot claim it.
	if vq.CompareAndSwap(2, id.None, q) {
		t.Fatal("q's CAS succeeded on p's register")
	}
	if !vq.CompareAndSwap(2, p, id.None) {
		t.Fatal("q's CAS p→⊥ failed")
	}
}

func TestSnapshotQuiescent(t *testing.T) {
	mem := New(5)
	g := id.NewGenerator()
	me := g.MustNew()
	v := newTestView(t, mem, me, perm.Rotation(5, 3))
	v.Write(0, me)
	v.Write(3, me)
	snap := v.Snapshot(nil)
	if len(snap) != 5 {
		t.Fatalf("snapshot length %d", len(snap))
	}
	for x, val := range snap {
		wantMine := x == 0 || x == 3
		if wantMine != val.Equal(me) {
			t.Errorf("snap[%d] = %v, wantMine=%v", x, val, wantMine)
		}
	}
	calls, collects := v.SnapshotStats()
	if calls != 1 || collects < 2 {
		t.Errorf("stats calls=%d collects=%d, want 1 and >=2", calls, collects)
	}
}

func TestSnapshotReusesBuffer(t *testing.T) {
	mem := New(4)
	g := id.NewGenerator()
	v := newTestView(t, mem, g.MustNew(), perm.Identity(4))
	buf := make([]id.ID, 4)
	out := v.Snapshot(buf)
	if &out[0] != &buf[0] {
		t.Error("snapshot did not reuse provided buffer")
	}
	out2 := v.Snapshot(nil)
	if len(out2) != 4 {
		t.Errorf("snapshot with nil dst returned length %d", len(out2))
	}
}

func TestSnapshotSeesOwnPriorWrites(t *testing.T) {
	// A process's snapshot must reflect all its own earlier writes
	// regardless of its permutation.
	r := xrand.New(31)
	for trial := 0; trial < 50; trial++ {
		mem := New(7)
		g := id.NewGenerator()
		me := g.MustNew()
		v := newTestView(t, mem, me, perm.Random(7, r))
		wrote := map[int]bool{}
		for i := 0; i < 4; i++ {
			x := r.Intn(7)
			v.Write(x, me)
			wrote[x] = true
		}
		snap := v.Snapshot(nil)
		for x := range wrote {
			if !snap[x].Equal(me) {
				t.Fatalf("trial %d: snap[%d] = %v, want own id", trial, x, snap[x])
			}
		}
	}
}

// TestSnapshotAtomicity is the key concurrent test. Each writer w owns the
// register pair (A, B) = (2w, 2w+1) and maintains the invariant
// "B = me ⟹ A = me" at every real-time instant by setting A before B and
// clearing B before A. A linearizable snapshot corresponds to some instant,
// so it must satisfy the invariant for every pair. A naive one-pass collect
// that reads A before B can observe the stale A=⊥ together with the fresh
// B=me; the double scan cannot.
func TestSnapshotAtomicity(t *testing.T) {
	const m = 6 // 3 pairs
	mem := New(m)
	g := id.NewGenerator()

	const writers = m / 2
	writerIDs := make([]id.ID, writers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		me := g.MustNew()
		writerIDs[w] = me
		v, err := mem.NewView(me, perm.Identity(m))
		if err != nil {
			t.Fatal(err)
		}
		pair := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v.Write(2*pair, v.Me())    // set A first…
				v.Write(2*pair+1, v.Me())  // …then B
				v.Write(2*pair+1, id.None) // clear B first…
				v.Write(2*pair, id.None)   // …then A
			}
		}()
	}

	// Reader scans in identity order, i.e. A before B — the tearing-prone
	// direction for a naive collect.
	reader := newTestView(t, mem, g.MustNew(), perm.Identity(m))
	violations := 0
	for i := 0; i < 2_000; i++ {
		snap := reader.Snapshot(nil)
		for w := 0; w < writers; w++ {
			if snap[2*w+1].Equal(writerIDs[w]) && !snap[2*w].Equal(writerIDs[w]) {
				violations++
			}
		}
	}
	close(stop)
	wg.Wait()
	if violations > 0 {
		t.Fatalf("%d snapshots violated the writer invariant B=me ⟹ A=me — double scan is not linearizable", violations)
	}
	calls, collects := reader.SnapshotStats()
	t.Logf("snapshot calls=%d collects=%d (%.2f collects/call)", calls, collects, float64(collects)/float64(calls))
}

func TestSnapshotProgressGuarantee(t *testing.T) {
	// Progress condition (1): with no writers, a snapshot terminates after
	// exactly two collects.
	mem := New(9)
	g := id.NewGenerator()
	v := newTestView(t, mem, g.MustNew(), perm.Identity(9))
	for i := 0; i < 10; i++ {
		v.Snapshot(nil)
	}
	calls, collects := v.SnapshotStats()
	if collects != 2*calls {
		t.Fatalf("quiescent snapshots used %d collects for %d calls, want exactly 2 per call", collects, calls)
	}
}

func TestConcurrentViewsDistinctStamps(t *testing.T) {
	// Writes by different processes must carry their own stamps even under
	// interleaving (each view's sequence is private).
	mem := New(1)
	g := id.NewGenerator()
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		me := g.MustNew()
		v, err := mem.NewView(me, perm.Identity(1))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				v.Write(0, v.Me())
			}
		}()
	}
	wg.Wait()
	s := mem.Observe(0)
	if s.Seq != 1000 {
		t.Fatalf("final seq = %d, want 1000 (each writer stamps privately)", s.Seq)
	}
	if !s.Val.Equal(s.Writer) {
		t.Fatalf("final cell inconsistent: %+v", s)
	}
}

func BenchmarkRead(b *testing.B) {
	mem := New(11)
	g := id.NewGenerator()
	v, _ := mem.NewView(g.MustNew(), perm.Identity(11))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = v.Read(i % 11)
	}
}

func BenchmarkWrite(b *testing.B) {
	mem := New(11)
	g := id.NewGenerator()
	v, _ := mem.NewView(g.MustNew(), perm.Identity(11))
	me := v.Me()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Write(i%11, me)
	}
}

func BenchmarkSnapshotQuiescent(b *testing.B) {
	for _, m := range []int{3, 7, 11, 31} {
		b.Run(sizeName(m), func(b *testing.B) {
			mem := New(m)
			g := id.NewGenerator()
			v, _ := mem.NewView(g.MustNew(), perm.Identity(m))
			buf := make([]id.ID, m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.Snapshot(buf)
			}
		})
	}
}

func BenchmarkSnapshotContended(b *testing.B) {
	for _, writers := range []int{1, 2, 4} {
		b.Run("writers="+sizeName(writers), func(b *testing.B) {
			const m = 11
			mem := New(m)
			g := id.NewGenerator()
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				v, _ := mem.NewView(g.MustNew(), perm.Identity(m))
				wg.Add(1)
				go func() {
					defer wg.Done()
					i := 0
					for {
						select {
						case <-stop:
							return
						default:
							v.Write(i%m, v.Me())
							i++
						}
					}
				}()
			}
			reader, _ := mem.NewView(g.MustNew(), perm.Identity(m))
			buf := make([]id.ID, m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reader.Snapshot(buf)
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
			calls, collects := reader.SnapshotStats()
			b.ReportMetric(float64(collects)/float64(calls), "collects/snapshot")
		})
	}
}

func sizeName(m int) string {
	const digits = "0123456789"
	if m == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for m > 0 {
		i--
		buf[i] = digits[m%10]
		m /= 10
	}
	return string(buf[i:])
}
