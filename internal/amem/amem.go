// Package amem implements the real (hardware-atomic) anonymous shared
// memory of the paper's model (§II-A, §II-B).
//
// A Memory is the external observer's array R[1..m] of atomic registers.
// Processes never touch a Memory directly: each process holds a View,
// which routes every access through the permutation the anonymity
// adversary assigned to that process. A View also owns the process's write
// stamping state (the per-process sequence number sni of §II-B) and
// implements the linearizable snapshot() operation with the double-scan
// construction of Afek et al., satisfying the paper's progress guarantee
// (1): a snapshot terminates in a finite number of the caller's steps
// provided no process writes during its execution.
//
// Views are single-process objects: each View may be used by only one
// goroutine at a time (matching the model, where fi and sni belong to
// process pi). The Memory itself is safe for any number of concurrent
// Views.
package amem

import (
	"fmt"
	"math"
	"unsafe"

	"anonmutex/internal/id"
	"anonmutex/internal/perm"
	"anonmutex/internal/register"
)

// The register block is laid out against 64-byte cache lines (amd64, and
// arm64 outside Apple silicon, where a 128-byte line only means a block
// spans fewer lines than counted here).
const (
	lineBytes   = 64
	regBytes    = unsafe.Sizeof(register.Atomic{}) // one 8-byte word
	regsPerLine = int(lineBytes / regBytes)
)

// Memory is an anonymous shared memory of m atomic registers, all
// initialized to ⊥ (the zero value of a register). It is the "external
// omniscient observer" array; tests and monitors may inspect it with
// Observe*, but protocol code must go through a View.
//
// The m registers are contiguous, 8 bytes apart, in one block that
// starts on a cache line and is a whole number of lines long: 128 bytes
// for the service's m = 11. The word after the last register is the park
// word (park.go), so a block of m ≡ 0 (mod 8) takes one line more. One
// lock's registers share lines — a sweep
// of an uncontended lock touches 2 lines, not m — and two locks never
// do, so traffic on one name cannot invalidate another's.
//
// Registers were once padded to a line each, to keep neighbouring CAS
// sweeps and collects off each other's lines. Measured (DESIGN.md "The
// space budget"), that bought nothing the benchmarks can see on the
// contended RMW lock, cost 4 % at most on the contended RW one, made the
// double scan under writers ten times slower (m line fills a collect are
// m windows for a writer to split two collects; one fill is one), and
// cost every resident lock 8× the register memory — 576 of the 2 094
// bytes a named lock then took in the service.
type Memory struct {
	regs []register.Atomic // len m; cap m+1, the last word the park word
}

// New creates a memory of m registers, every one holding ⊥. It panics if
// m < 1 (a memory must exist to communicate through; the paper's model has
// m ≥ 1).
func New(m int) *Memory {
	if m < 1 {
		panic(fmt.Sprintf("amem: memory size must be >= 1, got %d", m))
	}
	// A block of whole lines lands in a size class that is a multiple of
	// the line, and the allocator carves those from page-aligned spans:
	// the block comes back aligned. That is how the runtime behaves, not
	// what it promises, so check, and on a miss allocate one line more
	// and start at the first boundary inside it.
	intoLine := func(b []register.Atomic) uintptr { return uintptr(unsafe.Pointer(&b[0])) % lineBytes }
	words := (m + regsPerLine) / regsPerLine * regsPerLine // m registers and the park word
	block := make([]register.Atomic, words)
	if intoLine(block) != 0 {
		block = make([]register.Atomic, words+regsPerLine)
		block = block[(lineBytes-intoLine(block))%lineBytes/regBytes:]
	}
	return &Memory{regs: block[: m : m+1]}
}

// Size returns m.
func (mem *Memory) Size() int { return len(mem.regs) }

// Observe reads physical register x (0-based) from the external observer's
// viewpoint. For monitors and tests only.
func (mem *Memory) Observe(x int) register.Stamped {
	return mem.regs[x].Load()
}

// ObserveValues reads the algorithmic value of every physical register.
// The reads are individually atomic but not a snapshot. For monitors and
// tests only.
func (mem *Memory) ObserveValues() []id.ID {
	out := make([]id.ID, len(mem.regs))
	for x := range mem.regs {
		out[x] = mem.regs[x].Load().Val
	}
	return out
}

// NewView creates the anonymous view of this memory for process me, using
// the permutation p assigned by the adversary. The permutation maps local
// register names (0-based) to physical indices. The view keeps a compact
// copy of p, two bytes an entry, so a memory of more than 65 536
// registers has no views.
func (mem *Memory) NewView(me id.ID, p perm.Perm) (*View, error) {
	if me.IsNone() {
		return nil, fmt.Errorf("amem: a view requires a process identity, got ⊥")
	}
	if len(p) != len(mem.regs) {
		return nil, fmt.Errorf("amem: permutation size %d does not match memory size %d", len(p), len(mem.regs))
	}
	if len(p) > math.MaxUint16+1 {
		return nil, fmt.Errorf("amem: a view indexes at most %d registers, got %d", math.MaxUint16+1, len(p))
	}
	if !p.Valid() {
		return nil, fmt.Errorf("amem: invalid permutation %v", p)
	}
	compact := make([]uint16, len(p))
	for x, phys := range p {
		compact[x] = uint16(phys)
	}
	return &View{regs: mem.regs, perm: compact, me: me}, nil
}

// View is process pi's anonymous handle on the shared memory: every access
// through local index x reaches physical register perm[x]. Not safe for
// concurrent use — one View belongs to one process.
//
// A view holds what its process must keep privately per register — one
// permutation entry — plus the write stamp. The memory's register block
// is referenced directly, so an operation touches the view, the
// permutation and the block and nothing in between.
type View struct {
	regs []register.Atomic // the Memory's block, physical order
	perm []uint16          // local index → physical index
	me   id.ID
	seq  uint32 // sni: per-process write sequence number

	// scan is the double scan's two collect buffers, m words each, made
	// by the first Snapshot and reused by every later one. Algorithm 2
	// never snapshots, so its views never carry them.
	scan []register.Packed

	// Statistics for the snapshot-cost experiments.
	snapshotCalls    uint64
	snapshotCollects uint64
}

// Size returns m.
func (v *View) Size() int { return len(v.perm) }

// Me returns the identity this view belongs to.
func (v *View) Me() id.ID { return v.me }

// Read returns the algorithmic value of local register x: the identity of
// its last writer-recorded value, or ⊥.
func (v *View) Read(x int) id.ID {
	return id.FromHandle(v.regs[v.perm[x]].LoadPacked().ValueHandle())
}

// Write stores val into local register x, stamped with this process's
// identity and next sequence number ("sni ← sni+1; R[x] ← (v, idi, sni)" of
// §II-B). Both identity writes and ⊥ writes (shrink) are stamped.
func (v *View) Write(x int, val id.ID) {
	v.seq++
	v.regs[v.perm[x]].Store(register.Stamped{Val: val, Writer: v.me, Seq: v.seq})
}

// CompareAndSwap atomically replaces the value of local register x with
// newVal if its current value is old (§I-C). The RMW model's extra
// operation; never used by Algorithm 1.
func (v *View) CompareAndSwap(x int, old, newVal id.ID) bool {
	v.seq++
	return v.regs[v.perm[x]].CompareAndSwapValue(old, newVal, v.me, v.seq)
}

// Snapshot returns a linearizable snapshot of the algorithmic values of
// all m registers, in local index order, using the double-scan technique:
// repeatedly collect all m cells until two consecutive collects are
// identical (including stamps). Because every write changes its register's
// stamp, two identical consecutive collects prove the memory did not
// change between them, so the snapshot linearizes between the two scans.
//
// If dst has capacity m it is reused; otherwise a new slice is allocated.
//
// Termination: guaranteed when writers are quiescent (the paper's progress
// condition (1)); under active writing the operation retries, which is
// exactly the model's behavior.
func (v *View) Snapshot(dst []id.ID) []id.ID {
	v.snapshotCalls++
	m := len(v.perm)
	if v.scan == nil {
		v.scan = make([]register.Packed, 2*m)
	}
	prev, cur := v.scan[:m], v.scan[m:]
	v.collect(prev)
	for {
		v.collect(cur)
		if packedEqual(prev, cur) {
			break
		}
		prev, cur = cur, prev
	}
	if cap(dst) < len(cur) {
		dst = make([]id.ID, len(cur))
	}
	dst = dst[:len(cur)]
	for x, p := range cur {
		dst[x] = id.FromHandle(p.ValueHandle())
	}
	return dst
}

// collect reads all m registers once, in local order, into buf. The read
// order is irrelevant for correctness (paper footnote 2): what matters is
// that the k-th entries of two collects came from the same physical
// register, which the fixed permutation guarantees.
func (v *View) collect(buf []register.Packed) {
	v.snapshotCollects++
	for x := range v.perm {
		buf[x] = v.regs[v.perm[x]].LoadPacked()
	}
}

func packedEqual(a, b []register.Packed) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// SnapshotStats reports how many Snapshot calls this view has made and how
// many collect passes they needed in total. attempts/calls - 1 is the mean
// number of retries caused by concurrent writers (experiment E6).
func (v *View) SnapshotStats() (calls, collects uint64) {
	return v.snapshotCalls, v.snapshotCollects
}

// Perm returns a copy of this view's permutation. For diagnostics and
// experiment reporting only: a real process never knows its permutation.
func (v *View) Perm() perm.Perm {
	p := make(perm.Perm, len(v.perm))
	for x, phys := range v.perm {
		p[x] = int(phys)
	}
	return p
}
