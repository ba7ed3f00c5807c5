// Package baseline implements classic *non-anonymous* mutual exclusion
// algorithms used as comparison points for the benchmark harness.
//
// The paper's algorithms pay for anonymity: no agreed register names, no
// process ordering, equality-only identities. These baselines get
// everything the anonymous model forbids — globally agreed register names
// and small integer process indices — and show what that information is
// worth:
//
//   - TTAS: test-and-test-and-set spin lock built from one RMW register
//     (the non-anonymous cousin of Algorithm 2 with m = 1).
//   - Ticket: FIFO spin lock from two fetch-and-increment counters.
//   - Bakery: Lamport's bakery — the classic n-process RW-register
//     algorithm (first-come first-served, no RMW operations), the natural
//     non-anonymous comparison for Algorithm 1.
//   - Peterson tournament tree: O(log n) RW-register lock.
//   - Go: sync.Mutex, the runtime's futex-based lock, as a floor.
//
// All spin loops yield to the Go scheduler (runtime.Gosched) so the
// baselines behave sensibly at any GOMAXPROCS.
package baseline

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Handle is one process's handle on a lock. A Handle must be used by a
// single goroutine at a time.
type Handle interface {
	Lock()
	Unlock()
}

// Lock creates per-process handles. Implementations support up to their
// configured number of processes.
type Lock interface {
	// Name identifies the algorithm in benchmark output.
	Name() string
	// NewHandle allocates the next process slot.
	NewHandle() (Handle, error)
}

// ---------------------------------------------------------------------------
// TTAS

// TTAS is a test-and-test-and-set spin lock: it spins on a plain read and
// attempts the swap only when the lock looks free, reducing coherence
// traffic.
type TTAS struct {
	flag atomic.Bool
}

// NewTTAS creates a TTAS lock.
func NewTTAS() *TTAS { return &TTAS{} }

// Name implements Lock.
func (l *TTAS) Name() string { return "ttas" }

// NewHandle implements Lock.
func (l *TTAS) NewHandle() (Handle, error) { return ttasHandle{l}, nil }

type ttasHandle struct{ l *TTAS }

func (h ttasHandle) Lock() {
	for {
		if !h.l.flag.Load() && !h.l.flag.Swap(true) {
			return
		}
		runtime.Gosched()
	}
}

func (h ttasHandle) Unlock() { h.l.flag.Store(false) }

// ---------------------------------------------------------------------------
// Ticket

// Ticket is a FIFO spin lock built from two counters.
type Ticket struct {
	next    atomic.Uint64
	serving atomic.Uint64
}

// NewTicket creates a ticket lock.
func NewTicket() *Ticket { return &Ticket{} }

// Name implements Lock.
func (l *Ticket) Name() string { return "ticket" }

// NewHandle implements Lock.
func (l *Ticket) NewHandle() (Handle, error) { return ticketHandle{l}, nil }

type ticketHandle struct{ l *Ticket }

func (h ticketHandle) Lock() {
	t := h.l.next.Add(1) - 1
	for h.l.serving.Load() != t {
		runtime.Gosched()
	}
}

func (h ticketHandle) Unlock() { h.l.serving.Add(1) }

// ---------------------------------------------------------------------------
// Bakery

// Bakery is Lamport's bakery algorithm for n processes: first-come
// first-served mutual exclusion from read/write registers only. It is the
// natural non-anonymous baseline for Algorithm 1 (same register model,
// but with agreed names and ordered process indices).
type Bakery struct {
	n        int
	choosing []atomic.Bool
	number   []atomic.Uint64
	mu       sync.Mutex
	issued   int
}

// NewBakery creates a bakery lock for up to n processes.
func NewBakery(n int) (*Bakery, error) {
	if n < 1 {
		return nil, fmt.Errorf("baseline: bakery needs n >= 1, got %d", n)
	}
	return &Bakery{
		n:        n,
		choosing: make([]atomic.Bool, n),
		number:   make([]atomic.Uint64, n),
	}, nil
}

// Name implements Lock.
func (l *Bakery) Name() string { return "bakery" }

// NewHandle implements Lock.
func (l *Bakery) NewHandle() (Handle, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.issued >= l.n {
		return nil, fmt.Errorf("baseline: bakery configured for %d processes", l.n)
	}
	h := &bakeryHandle{l: l, i: l.issued}
	l.issued++
	return h, nil
}

type bakeryHandle struct {
	l *Bakery
	i int
}

func (h *bakeryHandle) Lock() {
	l, i := h.l, h.i
	// Doorway: pick a number greater than everything visible.
	l.choosing[i].Store(true)
	max := uint64(0)
	for j := 0; j < l.n; j++ {
		if v := l.number[j].Load(); v > max {
			max = v
		}
	}
	l.number[i].Store(max + 1)
	l.choosing[i].Store(false)
	// Wait for everyone ahead of us (lexicographic on (number, index)).
	for j := 0; j < l.n; j++ {
		if j == i {
			continue
		}
		for l.choosing[j].Load() {
			runtime.Gosched()
		}
		for {
			nj := l.number[j].Load()
			if nj == 0 || nj > l.number[i].Load() || (nj == l.number[i].Load() && j > i) {
				break
			}
			runtime.Gosched()
		}
	}
}

func (h *bakeryHandle) Unlock() { h.l.number[h.i].Store(0) }

// ---------------------------------------------------------------------------
// Peterson tournament tree

// Peterson is a tournament tree of two-process Peterson locks supporting n
// processes with O(log n) RW-register operations per acquisition (the
// classic construction; see Herlihy & Shavit, The Art of Multiprocessor
// Programming, §2.5). Each internal tree node is a two-slot Peterson lock;
// a process climbs from its leaf to the root, playing the role given by
// the child side it arrives from. The lower levels guarantee at most one
// process occupies each role at each node.
type Peterson struct {
	n      int
	levels int
	nodes  []pnode // heap-indexed; nodes[1] is the root
	mu     sync.Mutex
	issued int
}

// pnode is one two-process Peterson lock.
type pnode struct {
	flag [2]atomic.Bool
	turn atomic.Int32
}

// NewPeterson creates a tournament lock for up to n processes.
func NewPeterson(n int) (*Peterson, error) {
	if n < 1 {
		return nil, fmt.Errorf("baseline: peterson needs n >= 1, got %d", n)
	}
	levels := 0
	for 1<<levels < n {
		levels++
	}
	if levels == 0 {
		levels = 1 // n == 1: one node, trivially uncontended
	}
	return &Peterson{n: n, levels: levels, nodes: make([]pnode, 1<<(levels+1))}, nil
}

// Name implements Lock.
func (l *Peterson) Name() string { return "peterson-tree" }

// NewHandle implements Lock.
func (l *Peterson) NewHandle() (Handle, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.issued >= l.n {
		return nil, fmt.Errorf("baseline: peterson configured for %d processes", l.n)
	}
	h := &petersonHandle{l: l, leaf: 1<<l.levels + l.issued}
	l.issued++
	return h, nil
}

type petersonHandle struct {
	l    *Peterson
	leaf int
	path []int // scratch: nodes visited, leaf first
}

func (h *petersonHandle) Lock() {
	h.path = h.path[:0]
	node := h.leaf
	for node > 1 {
		role := node & 1
		parent := node >> 1
		p := &h.l.nodes[parent]
		p.flag[role].Store(true)
		p.turn.Store(int32(role))
		for p.flag[1-role].Load() && p.turn.Load() == int32(role) {
			runtime.Gosched()
		}
		h.path = append(h.path, node)
		node = parent
	}
}

func (h *petersonHandle) Unlock() {
	// Release top-down: reverse of acquisition order.
	for i := len(h.path) - 1; i >= 0; i-- {
		node := h.path[i]
		h.l.nodes[node>>1].flag[node&1].Store(false)
	}
}

// ---------------------------------------------------------------------------
// Go sync.Mutex

// Go wraps sync.Mutex as the runtime-assisted floor for comparisons.
type Go struct {
	mu sync.Mutex
}

// NewGo creates a sync.Mutex-backed lock.
func NewGo() *Go { return &Go{} }

// Name implements Lock.
func (l *Go) Name() string { return "sync.Mutex" }

// NewHandle implements Lock.
func (l *Go) NewHandle() (Handle, error) { return goHandle{l}, nil }

type goHandle struct{ l *Go }

func (h goHandle) Lock()   { h.l.mu.Lock() }
func (h goHandle) Unlock() { h.l.mu.Unlock() }

// Verify interface compliance.
var (
	_ Lock = (*TTAS)(nil)
	_ Lock = (*Ticket)(nil)
	_ Lock = (*Bakery)(nil)
	_ Lock = (*Peterson)(nil)
	_ Lock = (*Go)(nil)
)
