package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// nSlices is how many equal slices the measurement window is cut into;
// every throughput and timing metric is the median of the slice values.
const nSlices = 5

// spec describes one workload. The five specs below are the benchmark;
// later issues refer to them by name.
type spec struct {
	Name string
	Why  string
	// Sessions is the number of concurrent sessions (0: one per CPU),
	// spread over at most Sockets TCP connections.
	Sessions, Sockets int
	// Keys is the key-space size; ZipfS > 0 draws keys zipf(ZipfS),
	// otherwise uniformly.
	Keys  int
	ZipfS float64
	// Rate > 0 makes the workload open loop: Poisson arrivals at Rate per
	// second, each with Deadline counted from its due time, queued in a
	// backlog of Backlog and shed beyond it.
	Rate     float64
	Deadline time.Duration
	Backlog  int
	// Leased runs grants under leases with a journal (-fsync off) in a
	// temporary directory, and turns the fencing-token check on.
	Leased bool
	// Inproc drives the lease manager inside a worker process, with no
	// server and no network.
	Inproc bool
}

var specs = []spec{
	{
		Name: "serial", Sessions: 1, Sockets: 1, Keys: 4096,
		Why: "Latency floor: closed loop, 1 session on 1 socket, 4096 uniform keys, leases off; nothing batches, so session, client and socket are the whole cost.",
	},
	{
		Name: "fanout", Sessions: 64, Sockets: 2, Keys: 4096, Leased: true,
		Why: "Capacity of the production configuration: closed loop, 64 sessions on 2 sockets, 4096 uniform keys, -lease-ttl 2s with a journal at -fsync off; frames coalesce.",
	},
	{
		Name: "hotkey", Sessions: 16, Sockets: 2, Keys: 1,
		Why: "Lock-wait path: closed loop, 16 sessions on 2 sockets, one key, default -handles 8, leases off; pool queueing and the contended entry do the work, starvation shows.",
	},
	{
		Name: "overload", Sessions: 128, Sockets: 2, Keys: 4096,
		Rate: 100000, Deadline: 20 * time.Millisecond, Backlog: 512,
		Why: "Offered at twice capacity: open loop, Poisson 100000/s, 128 sessions on 2 sockets, 4096 uniform keys, blocking acquire, client-side 20 ms deadline from the due time, backlog 512 then shed.",
	},
	{
		Name: "inproc", Sessions: 0, Keys: 20480, Leased: true, Inproc: true,
		Why: "Single-process baseline: one goroutine per CPU drives lease+journal over lockmgr with no network, 20480 uniform keys (1.25x the resident cap) so eviction stays live.",
	},
}

func specByName(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.Name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// plan is a run's timing. A run measures for seconds in all, split over
// reps replications: each sets the workload up from nothing — a fresh
// process under test — settles, and measures one window of nSlices
// slices. Replications matter because part of the noise is per set-up
// (which sessions won the handles, where the kernel put the threads) and
// no window length averages that away.
type plan struct {
	reps   int
	window time.Duration // measured per replication
	settle time.Duration // driven but unrecorded, before each window
	yard   time.Duration // each yardstick burst, before and after every replication
}

// designWindow is the measured time the workloads were sized for.
const designWindow = 20 * time.Second

func planFor(seconds float64, reps int) plan {
	w := time.Duration(seconds * float64(time.Second) / float64(reps))
	return plan{reps: reps, window: w, settle: w / 10, yard: w / 12}
}

func (p plan) slice() time.Duration { return p.window / nSlices }

// gate is the correctness check every cycle passes through while it
// holds the lock: a per-key owner word that must go 0 → session → 0, on
// leased workloads a fencing token that must only grow per key, and now
// and then the backend's own answer to "do I hold this".
type gate struct {
	owners     []atomic.Int32
	tokens     []atomic.Uint64
	leased     bool
	violations atomic.Uint64
}

func newGate(keys int, leased bool) *gate {
	return &gate{owners: make([]atomic.Int32, keys), tokens: make([]atomic.Uint64, keys), leased: leased}
}

// holdsEvery is how often a cycle also asks the backend Holds.
const holdsEvery = 256

// check runs inside the critical section of session sid's n-th cycle on
// key. It reports whether it made a backend call, so the caller can keep
// that call out of the release timing.
func (g *gate) check(s session, sid int32, key uint32, name string, n uint64) (called bool, err error) {
	if !g.owners[key].CompareAndSwap(0, sid) {
		g.violations.Add(1)
	}
	if g.leased {
		tok := s.Token(name)
		if prev := g.tokens[key].Swap(tok); tok <= prev {
			g.violations.Add(1)
		}
	}
	if n%holdsEvery == 0 {
		called = true
		held, herr := s.Holds(name)
		if herr != nil {
			err = herr
		} else if !held {
			g.violations.Add(1)
		}
	}
	if !g.owners[key].CompareAndSwap(sid, 0) {
		g.violations.Add(1)
	}
	return called, err
}

// sliceCount is one session's counters for one slice.
type sliceCount struct {
	attempts uint64 // cycles begun, or arrivals due, in the slice
	cycles   uint64 // completed, check-passing cycles
	aborts   uint64 // acquires that ended at their deadline
	errs     uint64 // operations that returned an error
}

// sessionRec is everything one session goroutine records. It is written
// by that goroutine only and read after it has ended, except inflight.
type sessionRec struct {
	slices [nSlices]sliceCount
	acq    [nSlices]*hist
	rel    *hist
	cycles uint64 // completed in the window
	// inflight is the start of the acquire in flight, in ns from the run's
	// base plus one; 0 when there is none. Whoever swaps it to 0 records
	// the sample — the session when the acquire returns, the coordinator
	// when the window closes first.
	inflight atomic.Int64
}

func newSessionRec() *sessionRec {
	r := &sessionRec{rel: newHist()}
	for i := range r.acq {
		r.acq[i] = newHist()
	}
	return r
}

// rig is a set-up workload, ready to be driven: open sessions on a warm
// backend.
type rig struct {
	sp       spec
	names    []string
	sessions []session
	gate     *gate
	seed     uint64
	// stats reads the backend's counters; pid is the process whose /proc
	// entries the CPU, memory and syscall metrics come from; dead reports
	// that the backend has crashed.
	stats func() (serverStats, error)
	pid   int
	dead  func() bool
	// interrupt unblocks sessions still waiting in an acquire once the run
	// is over (closing their sockets); nil when acquires cannot block.
	interrupt func()
}

// window is the raw outcome of driving a rig.
type window struct {
	pl       plan
	recs     []*sessionRec
	tail     *hist // ages of the acquires in flight when the window closed
	lag      *hist // open loop: how late each arrival was emitted
	shed     [nSlices]uint64
	due      [nSlices]uint64 // open loop: arrivals due per slice
	cpu      [nSlices + 1]uint64
	snap     [2]procSnap
	stats    [2]serverStats
	selfCPU  [2]uint64
	crashed  bool
	firstErr error
}

// clock converts between wall time and ns since the run's base.
type clock struct {
	base  time.Time
	start int64 // window start, ns from base
	slice int64
}

func (c clock) now() int64 { return int64(time.Since(c.base)) }

// sliceOf maps a time to its slice: -1 before the window, nSlices after.
func (c clock) sliceOf(ns int64) int {
	if ns < c.start {
		return -1
	}
	if i := int((ns - c.start) / c.slice); i < nSlices {
		return i
	}
	return nSlices
}

func inWindow(i int) bool { return i >= 0 && i < nSlices }

// ringLen is how many key draws a closed-loop session cycles through.
const ringLen = 1 << 14

// drive runs the rig for pl.settle + pl.window and collects the window.
func (r *rig) drive(pl plan) *window {
	w := &window{pl: pl, tail: newHist(), lag: newHist()}
	w.recs = make([]*sessionRec, len(r.sessions))
	for i := range w.recs {
		w.recs[i] = newSessionRec()
	}
	var stop atomic.Bool
	var errOnce sync.Once
	fail := func(err error) { errOnce.Do(func() { w.firstErr = err }) }

	var wg sync.WaitGroup
	ck := clock{start: int64(pl.settle), slice: int64(pl.slice())}
	if r.sp.Rate > 0 {
		total := int64(pl.settle + pl.window)
		arrivals := poissonArrivals(r.seed, r.sp.Rate, total, r.sp.Keys, r.sp.ZipfS)
		backlog := make(chan arrival, r.sp.Backlog) // the workload's client-side queue bound
		ck.base = time.Now()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(backlog)
			pace(ck, arrivals, backlog, &stop, w)
		}()
		for i, s := range r.sessions {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.lane(ck, i, s, w.recs[i], &stop, fail).openLoop(backlog)
			}()
		}
	} else {
		rings := make([][]uint32, len(r.sessions))
		for i := range rings {
			rings[i] = keyRing(r.seed, i, r.sp.Keys, ringLen, r.sp.ZipfS)
		}
		ck.base = time.Now()
		for i, s := range r.sessions {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.lane(ck, i, s, w.recs[i], &stop, fail).closedLoop(rings[i])
			}()
		}
	}

	// The coordinator: counters at the window's edges, CPU at every slice
	// boundary, and at the close the ages of what is still in flight.
	sleepUntil := func(ns int64) { time.Sleep(ck.base.Add(time.Duration(ns)).Sub(time.Now())) }
	self := os.Getpid()
	sleepUntil(ck.start)
	var err error
	if w.snap[0], err = readProc(r.pid); err != nil {
		fail(fmt.Errorf("reading /proc of the measured process: %w", err))
	}
	if w.stats[0], err = r.stats(); err != nil {
		fail(fmt.Errorf("reading server stats: %w", err))
	}
	w.selfCPU[0], _ = readCPU(self) // the generator's own CPU: informational
	w.cpu[0] = w.snap[0].cpuUs()
	for i := 1; i <= nSlices; i++ {
		sleepUntil(ck.start + int64(i)*ck.slice)
		if r.dead() {
			w.crashed = true
			break
		}
		if i < nSlices {
			w.cpu[i], _ = readCPU(r.pid)
		}
	}
	end := ck.now()
	if !w.crashed {
		if w.snap[1], err = readProc(r.pid); err != nil {
			fail(fmt.Errorf("reading /proc of the measured process: %w", err))
		}
		w.cpu[nSlices] = w.snap[1].cpuUs()
		for _, rec := range w.recs {
			if since := rec.inflight.Swap(0); since != 0 {
				w.tail.add(end - (since - 1))
			}
		}
		if w.stats[1], err = r.stats(); err != nil {
			fail(fmt.Errorf("reading server stats: %w", err))
		}
		w.selfCPU[1], _ = readCPU(self)
	}
	stop.Store(true)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		// Sessions still blocked in an acquire (a crashed or wedged
		// backend): break their transport so they return.
		if r.interrupt != nil {
			r.interrupt()
		}
		<-done
	}
	if r.dead() {
		w.crashed = true
	}
	return w
}

// maxConsecutiveErrs ends a session whose backend keeps failing.
const maxConsecutiveErrs = 100

// lane is one session at work: the session, what it records, and the
// run it belongs to.
type lane struct {
	r    *rig
	ck   clock
	sid  int32
	s    session
	rec  *sessionRec
	stop *atomic.Bool
	fail func(error)
	errs int    // consecutive failed operations
	n    uint64 // cycles begun
}

func (r *rig) lane(ck clock, i int, s session, rec *sessionRec, stop *atomic.Bool, fail func(error)) *lane {
	return &lane{r: r, ck: ck, sid: int32(i + 1), s: s, rec: rec, stop: stop, fail: fail}
}

// errored records a failed operation of a cycle begun in slice b and
// reports whether the session should go on.
func (l *lane) errored(op string, b int, err error) bool {
	if l.stop.Load() {
		return false // the run is over and its transport is being torn down
	}
	l.fail(fmt.Errorf("%s: %s: %w", l.r.sp.Name, op, err))
	if inWindow(b) {
		l.rec.slices[b].errs++
	}
	l.errs++
	return l.errs < maxConsecutiveErrs && !l.r.dead()
}

// cycle is one acquire, check and release of key, for a cycle begun in
// slice b whose latency clock started at from. With limit > 0 a grant
// that comes limit or more after from is not a served request: it counts
// as an abort, its latency and its cycle are not recorded, and the lock
// is released like any other. It returns the time the release completed
// and whether the session should go on.
func (l *lane) cycle(key uint32, b int, from, limit int64) (int64, bool) {
	l.n++
	name := l.r.names[key]
	l.rec.inflight.Store(from + 1)
	err := l.s.Acquire(name)
	t1 := l.ck.now()
	mine := l.rec.inflight.Swap(0) != 0
	if err != nil {
		return t1, l.errored("acquire", b, err)
	}
	served := limit == 0 || t1-from < limit
	switch g := l.ck.sliceOf(t1); {
	case !served && inWindow(b):
		l.rec.slices[b].aborts++
	case served && mine && inWindow(g):
		l.rec.acq[g].add(t1 - from)
	}
	t2 := t1
	called, err := l.r.gate.check(l.s, l.sid, key, name, l.n)
	if called {
		t2 = l.ck.now() // keep the gate's own round trip out of the release time
	}
	if err == nil {
		err = l.s.Release(name)
	}
	t3 := l.ck.now()
	if err != nil {
		return t3, l.errored("release", b, err)
	}
	l.errs = 0
	if c := l.ck.sliceOf(t3); served && inWindow(c) {
		l.rec.slices[c].cycles++
		l.rec.cycles++
		l.rec.rel.add(t3 - t2)
	}
	return t3, true
}

// closedLoop is one closed-loop session: a cycle on the next key of its
// ring, until the window has closed.
func (l *lane) closedLoop(ring []uint32) {
	t0 := l.ck.now()
	for i := 0; !l.stop.Load(); i++ {
		b := l.ck.sliceOf(t0)
		if b == nSlices {
			return
		}
		if b >= 0 {
			l.rec.slices[b].attempts++
		}
		var alive bool
		if t0, alive = l.cycle(ring[i%len(ring)], b, t0, 0); !alive {
			return
		}
	}
}

// openLoop is one open-loop session: it takes the next arrival from the
// backlog and runs its cycle, the latency clock started at the arrival's
// due time. The deadline is kept by the client: an arrival that has
// outlived it in the backlog is dropped unsent, and a grant that comes
// after it is not a served request. No deadline goes to the server — see
// the README for why the workload stays off the server's abort path.
func (l *lane) openLoop(backlog <-chan arrival) {
	deadline := int64(l.r.sp.Deadline)
	for a := range backlog {
		if l.stop.Load() {
			return
		}
		b := l.ck.sliceOf(a.due)
		if l.ck.now()-a.due >= deadline {
			if inWindow(b) {
				l.rec.slices[b].aborts++
			}
			continue
		}
		if _, alive := l.cycle(a.key, b, a.due, deadline); !alive {
			return
		}
	}
}

// pace is the open-loop generator. It never spins: it sleeps to the next
// tick of at least a millisecond and then emits every arrival that has
// come due, each stamped with its own due time, so a late wake-up shows
// as lag and not as a thinner load. An arrival that finds the backlog
// full is shed.
func pace(ck clock, arrivals []arrival, backlog chan<- arrival, stop *atomic.Bool, w *window) {
	for i := 0; i < len(arrivals) && !stop.Load(); {
		time.Sleep(time.Millisecond)
		now := ck.now()
		for ; i < len(arrivals) && arrivals[i].due <= now; i++ {
			a := arrivals[i]
			b := ck.sliceOf(a.due)
			if inWindow(b) {
				w.due[b]++
				w.lag.add(now - a.due)
			}
			select {
			case backlog <- a:
			default:
				if inWindow(b) {
					w.shed[b]++
				}
			}
		}
	}
}

// warm touches every key once, the sessions sharing the key space, with
// the gate on: lock tables, name interning and sockets are all warm, and
// verified, before anything is timed.
func (r *rig) warm() error {
	var wg sync.WaitGroup
	errs := make([]error, len(r.sessions))
	for i, s := range r.sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := i; k < len(r.names); k += len(r.sessions) {
				if err := s.Acquire(r.names[k]); err != nil {
					errs[i] = err
					return
				}
				_, err := r.gate.check(s, int32(i+1), uint32(k), r.names[k], 1)
				if err == nil {
					err = s.Release(r.names[k])
				}
				if err != nil {
					errs[i] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("%s: warm-up: %w", r.sp.Name, err)
		}
	}
	return nil
}

// sessionCount resolves a spec's session count.
func (sp spec) sessionCount() int {
	if sp.Sessions > 0 {
		return sp.Sessions
	}
	return runtime.NumCPU()
}
