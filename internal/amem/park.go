package amem

// Parking: how a process that waits on a memory blocks until a store can
// let it in, and how the storing process wakes it.
//
// The paper's waiting loops spin on the registers: Algorithm 2 reads
// until the memory is all ⊥ (lines 8–10), Algorithm 1 re-snapshots until
// its view lets it move (line 4). Every such wait ends only after some
// process changes a register, and a full memory changes only when one is
// erased. So a waiter parks, and a process that stores loads one word to
// learn whether anyone is parked, waking them if so.
//
// State. The park word is the register block's word m, just past the
// last register: the line the unlock sweep has just written. It counts
// the views of this memory that are parked, absent waiters (which hold
// no register: only an empty memory can let them in) in its low half and
// holding waiters (which may own registers) in its high half. The parked
// processes themselves wait in the lot, a process-wide table of pooled
// nodes, each a wake channel and a cap timer, sharded by the park word's
// address. Nothing about parking is resident per memory beyond the word,
// or per view at all.
//
// Who is woken. A store wakes every parked holder of its memory: a holder
// competes, and a claim can turn it from leader into the one that must
// resign. A store of ⊥ also wakes the longest-parked absent waiter. One
// is enough: the woken waiter re-reads the memory after the store. If it
// finds it empty it competes, and its own later erase wakes the next; if
// not, a process that still holds a register erases it later, and that
// erase wakes an absent waiter again.
//
// No lost wake. Park puts the node in the lot and adds to the park word,
// under the shard mutex, before the caller re-reads the memory once more
// (the caller's re-check pass); Notify follows the register store and
// loads the park word. The four accesses — the waiter's add and re-read,
// the storer's store and load — are sequentially consistent atomics. So
// either the storer's load sees the waiter counted, and the waiter is in
// the lot to be found (or was already woken by a store no earlier than
// its count), or the load precedes the add, hence the store precedes the
// re-read and the waiter sees it without a wake. An absent waiter that
// is woken and then withdraws passes the wake on (the engine's Driver
// notifies after every withdraw). A waiter that no store wakes still
// leaves its park when its cap passes, so liveness never rests on the
// wake.

import (
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// The park word's two counts.
const (
	parkAbsent = 1       // one parked absent waiter
	parkHolder = 1 << 32 // one parked holding waiter
)

// Parking is one parked process's registration in the lot, from View.Park
// to the wake a Wait reports, or to Cancel. A nil *Parking is valid and
// waits for nothing.
type Parking struct {
	word       *atomic.Uint64 // the memory's park word: the lot's key
	unit       uint64         // parkAbsent or parkHolder
	queued     bool           // in its shard's queue, not yet woken
	prev, next *Parking       // the shard queue, oldest first; next links the free list too
	wake       chan struct{}  // one slot: the waker's send never blocks
	timer      *time.Timer    // the cap on one Wait
}

// lotShard holds the parked nodes of the memories whose park words hash
// to it, oldest first, and the nodes free for the next park.
type lotShard struct {
	mu         sync.Mutex
	head, tail *Parking
	free       *Parking
	_          [64 - unsafe.Sizeof(sync.Mutex{}) - 3*unsafe.Sizeof(uintptr(0))]byte
}

const lotShards = 64

var lot [lotShards]lotShard

func shardOf(word *atomic.Uint64) *lotShard {
	h := uint64(uintptr(unsafe.Pointer(word))) * 0x9E3779B97F4A7C15
	return &lot[h>>(64-6)]
}

func (sh *lotShard) push(p *Parking) {
	p.queued = true
	p.prev, p.next = sh.tail, nil
	if sh.tail != nil {
		sh.tail.next = p
	} else {
		sh.head = p
	}
	sh.tail = p
}

// unqueue takes p out of the queue and out of its park word's count.
func (sh *lotShard) unqueue(p *Parking) {
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		sh.head = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	} else {
		sh.tail = p.prev
	}
	p.prev, p.next, p.queued = nil, nil, false
	p.word.Add(-p.unit)
}

// parkWord is the word after the last register, which New allocates with
// the block: a register.Atomic is one atomic.Uint64.
func (v *View) parkWord() *atomic.Uint64 {
	m := len(v.regs)
	return (*atomic.Uint64)(unsafe.Pointer(&v.regs[:m+1][m]))
}

// Park registers this process as parked on its memory: holds says
// whether it may own a register (it competes), or waits absent, for an
// empty memory. The caller then re-reads the memory once — a store it
// missed before Park is in that pass — and, unless that pass let it move,
// waits. A wake, or Cancel, ends the registration.
func (v *View) Park(holds bool) *Parking {
	word := v.parkWord()
	sh := shardOf(word)
	sh.mu.Lock()
	p := sh.free
	if p != nil {
		sh.free = p.next
	} else {
		p = &Parking{wake: make(chan struct{}, 1), timer: time.NewTimer(time.Hour)}
	}
	p.word, p.unit = word, parkAbsent
	if holds {
		p.unit = parkHolder
	}
	sh.push(p)
	word.Add(p.unit)
	sh.mu.Unlock()
	return p
}

// Wait blocks until a store to the memory wakes p, max passes, or done
// (which may be nil) is closed. A wake ends the registration, and Wait
// reports true. Otherwise p stays registered, keeping its place in the
// queue: the caller re-reads the memory and waits again, or cancels.
func (p *Parking) Wait(done <-chan struct{}, max time.Duration) bool {
	if p == nil {
		return false
	}
	p.timer.Reset(max)
	select {
	case <-p.wake:
		p.free()
		return true
	case <-p.timer.C:
	case <-done:
	}
	return false
}

// Cancel ends the registration without a wake: it takes p out of the lot
// or, if a store has woken it since its last Wait, consumes the wake.
func (p *Parking) Cancel() {
	if p == nil {
		return
	}
	sh := shardOf(p.word)
	sh.mu.Lock()
	if p.queued {
		sh.unqueue(p)
	} else {
		<-p.wake // sent before the waker let go of sh.mu: never blocks
	}
	sh.release(p)
	sh.mu.Unlock()
}

func (p *Parking) free() {
	sh := shardOf(p.word)
	sh.mu.Lock()
	sh.release(p)
	sh.mu.Unlock()
}

// release puts an unqueued node on the free list.
func (sh *lotShard) release(p *Parking) {
	p.word = nil
	p.next = sh.free
	sh.free = p
}

// Notify follows a store to the memory: it wakes every parked holder and,
// when the store was an erase (of ⊥), the longest-parked absent waiter.
// With nobody parked it costs one atomic load of a word on the register
// block's line.
func (v *View) Notify(erased bool) {
	word := v.parkWord()
	n := word.Load()
	if n < parkHolder && (!erased || n == 0) {
		return
	}
	sh := shardOf(word)
	sh.mu.Lock()
	for p := sh.head; p != nil; {
		next := p.next
		if p.word == word && (p.unit == parkHolder || erased) {
			if p.unit == parkAbsent {
				erased = false
			}
			sh.unqueue(p)
			p.wake <- struct{}{}
			if !erased && word.Load() < parkHolder {
				break
			}
		}
		p = next
	}
	sh.mu.Unlock()
}
