// Package loadgen drives named-lock backends under configurable load: a
// population of client goroutines acquires and releases keys drawn from
// the repository's unified traffic model (internal/workload), measures
// per-acquire latency and end-to-end throughput, and verifies mutual
// exclusion with a per-key owner token checked inside every critical
// section.
//
// One workload.Spec describes the whole run: the key-popularity
// distribution (uniform, zipf, hotset, shifting-hotset), the arrival
// process, the op mix (blocking lock, bounded trylock, deadline-bounded
// acquire — expired attempts withdraw cleanly and are reported as an
// abort count and rate), and the session-length profile. Closed-loop
// specs behave like a classic benchmark: each client thinks between its
// own cycles, so the load adapts to the backend's speed. Open-loop specs
// (Poisson or bursty arrivals at an offered rate) decouple demand from
// capacity — the generator reports offered versus achieved throughput,
// shed arrivals, and the abort rate, which is what an abortable lock
// service's SLA behavior under overload actually looks like.
//
// The backend is anything that can acquire and release named locks — the
// in-process lockmgr.Manager (via ManagerLocker) or a lockd server over
// TCP (via the lockd/client package); cmd/anonload exposes both.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"anonmutex/internal/lease"
	"anonmutex/internal/lockmgr"
	"anonmutex/internal/stats"
	"anonmutex/internal/workload"
	lockclient "anonmutex/lockd/client"
)

// Locker is one client's session on a named-lock backend. A Locker
// belongs to one client goroutine.
type Locker interface {
	Acquire(name string) error
	Release(name string) error
	Close() error
}

// HoldsChecker is the optional owner-check surface: a Locker that can
// report, from the backend's own bookkeeping, whether this session holds
// a name. When available, the generator issues the check inside every
// critical section and counts failures as violations.
type HoldsChecker interface {
	Holds(name string) (bool, error)
}

// DeadlineLocker is the optional deadline surface: a Locker whose
// acquires can be bounded. AcquireFor reports whether the lock is now
// held; giving up at the deadline is not an error — the waiter withdraws
// cleanly and the generator counts an abort. A spec with timed ops
// requires the backend to offer this interface.
type DeadlineLocker interface {
	AcquireFor(name string, d time.Duration) (bool, error)
}

// TryLocker is the optional trylock surface: a bounded probe that never
// waits out a holder's critical section. A miss reports (false, nil) and
// the generator counts it. A spec with try ops requires this interface.
type TryLocker interface {
	TryAcquire(name string) (bool, error)
}

// Crasher is the optional crash surface: acquire name on a session of
// its own and then go dark holding it — no release, no heartbeat — so
// the key stays stuck until the backend's lease TTL recovers it. A
// spec with crash ops requires this interface. The generator never
// touches the owner token for a crashed hold: the dead holder can't
// clear it, and the token protocol is exactly what the successor's
// fencing is judged against.
type Crasher interface {
	// Crash reports false when the acquire could not be granted in
	// time — the victim "died" while still waiting, which the generator
	// counts as an abort, not a run failure: on a crash-heavy hot key
	// the queue drains at one expiry per TTL, so bounded-patience
	// crashers are expected to give up sometimes.
	Crash(name string) (bool, error)
}

// Config parameterizes a run.
type Config struct {
	// Clients is the number of concurrent client goroutines (default 8).
	Clients int
	// Keys is the size of the lock-name space (default 16).
	Keys int
	// Cycles bounds the total attempts across all clients (completed
	// cycles plus aborts and try misses; in open-loop specs, arrivals);
	// 0 means run until Duration elapses (at least one must be set).
	Cycles int
	// Duration bounds the run's wall clock; 0 means run until Cycles.
	Duration time.Duration
	// Workload is the unified traffic model driving key choice, arrival
	// pacing, op kinds, and session lengths. Nil: the zero spec, which
	// normalizes to uniform keys, a closed loop and blocking acquires.
	Workload *workload.Spec
	// Seed drives the traffic model when the spec's own seed is unset.
	Seed uint64
	// ConnsPerSocket, when nonzero, overrides the spec's
	// conns_per_socket knob — the CLI's -mux flag. The generator itself
	// only records it; NewLocker decides what it means.
	ConnsPerSocket int
	// TolerateGrantLoss makes grant loss a counted outcome instead of a
	// run failure: ops rejected because the grant was fenced away or its
	// node became unreachable count as Lost (acquire-side losses count
	// as aborts), and the client-side owner-token CAS check — which is
	// unsound across an ownership handoff, where the old holder cannot
	// clear its token — is skipped. Use for cluster failover runs, where
	// mutual exclusion is judged by the servers' own violation counters
	// and fencing-token monotonicity instead.
	TolerateGrantLoss bool
	// NewLocker opens client i's session.
	NewLocker func(client int) (Locker, error)
}

// withDefaults validates the config and resolves the effective workload
// spec.
func (c Config) withDefaults() (Config, workload.Spec, error) {
	var zero workload.Spec
	if c.Clients == 0 {
		c.Clients = 8
	}
	if c.Clients < 1 {
		return c, zero, fmt.Errorf("loadgen: need Clients >= 1, got %d", c.Clients)
	}
	if c.Keys == 0 {
		c.Keys = 16
	}
	if c.Keys < 1 {
		return c, zero, fmt.Errorf("loadgen: need Keys >= 1, got %d", c.Keys)
	}
	if c.Cycles < 0 || c.Duration < 0 {
		return c, zero, fmt.Errorf("loadgen: negative bounds")
	}
	if c.Cycles == 0 && c.Duration == 0 {
		return c, zero, fmt.Errorf("loadgen: need Cycles or Duration")
	}
	if c.NewLocker == nil {
		return c, zero, fmt.Errorf("loadgen: NewLocker is required")
	}

	var spec workload.Spec
	if c.Workload != nil {
		spec = *c.Workload
	}
	if spec.Seed == 0 {
		spec.Seed = c.Seed
	}
	if c.ConnsPerSocket != 0 {
		spec.ConnsPerSocket = c.ConnsPerSocket
	}
	spec, err := spec.Normalize()
	if err != nil {
		return c, zero, fmt.Errorf("loadgen: %w", err)
	}
	return c, spec, nil
}

// Result is one run's outcome. Latencies are microseconds.
type Result struct {
	Backend string `json:"backend"`
	Clients int    `json:"clients"`
	Keys    int    `json:"keys"`
	// ConnsPerSocket echoes the spec's socket-multiplexing knob so a
	// recorded result states which transport shape produced it (0: one
	// socket per client).
	ConnsPerSocket int `json:"conns_per_socket,omitempty"`
	// Profile, KeyDist, and Arrival summarize the traffic model.
	Profile string  `json:"profile"`
	KeyDist string  `json:"key_dist"`
	Arrival string  `json:"arrival"`
	Cycles  int64   `json:"cycles"`
	Seconds float64 `json:"seconds"`
	// Throughput is the achieved rate of completed cycles.
	Throughput float64 `json:"cycles_per_second"`
	// Open-loop accounting: Arrivals is every arrival the pacer emitted
	// (OfferedPerSec is that over the wall clock); Shed counts arrivals
	// dropped because the bounded backlog was full or the run ended
	// before they were served.
	Arrivals      int64   `json:"arrivals,omitempty"`
	OfferedPerSec float64 `json:"offered_per_second,omitempty"`
	Shed          int64   `json:"shed,omitempty"`
	// Violations counts owner-check failures observed inside critical
	// sections (client token mismatches and failed backend holds checks).
	// It must be 0.
	Violations int64 `json:"violations"`
	// Aborts counts deadline-bounded acquires abandoned at their per-op
	// deadline (including open-loop arrivals whose SLA expired while
	// queued); AbortRate is aborts over attempts (cycles + aborts).
	// TryMisses counts trylock probes that found the lock busy. Latency
	// percentiles cover successful acquires only.
	Aborts    int64   `json:"aborts"`
	AbortRate float64 `json:"abort_rate"`
	TryMisses int64   `json:"try_misses,omitempty"`
	// Crashes counts holders that deliberately died inside the critical
	// section (the spec's crash ops); their keys stay held until the
	// backend's lease TTL reclaims them.
	Crashes int64 `json:"crashes,omitempty"`
	// Lost counts grants the run lost mid-critical-section to fencing or
	// node failure (TolerateGrantLoss runs only): the op on the grant was
	// rejected, the cycle completed no release, and no violation is
	// implied — the backend fenced the holder out, which is the designed
	// failover outcome.
	Lost        int64   `json:"lost,omitempty"`
	OpTimeoutMS float64 `json:"op_timeout_ms,omitempty"`
	LatencyP50  float64 `json:"acquire_p50_us"`
	LatencyP90  float64 `json:"acquire_p90_us"`
	LatencyP99  float64 `json:"acquire_p99_us"`
	LatencyMax  float64 `json:"acquire_max_us"`
}

// Table renders the result in the harness's table format (JSON via the
// stats.Table codec).
func (r *Result) Table() *stats.Table {
	t := &stats.Table{
		Title: fmt.Sprintf("anonload — backend=%s", r.Backend),
		Header: []string{"clients", "keys", "profile", "key dist", "arrival",
			"cycles", "seconds", "cycles/s", "offered/s", "shed",
			"violations", "aborts", "abort rate", "try misses",
			"acq p50 µs", "acq p90 µs", "acq p99 µs", "acq max µs"},
	}
	t.AddRow(r.Clients, r.Keys, r.Profile, r.KeyDist, r.Arrival,
		r.Cycles, r.Seconds, r.Throughput, r.OfferedPerSec, r.Shed,
		r.Violations, r.Aborts, r.AbortRate, r.TryMisses,
		r.LatencyP50, r.LatencyP90, r.LatencyP99, r.LatencyMax)
	t.Notes = append(t.Notes,
		"every critical section runs an owner check: a per-key token (CAS in, CAS out) plus the backend's holds op when offered")
	if r.OpTimeoutMS > 0 {
		t.Notes = append(t.Notes,
			fmt.Sprintf("per-op deadline %.3gms: aborted acquires withdraw cleanly and do not enter the latency percentiles", r.OpTimeoutMS))
	}
	if r.Arrival != workload.ArrivalClosed {
		t.Notes = append(t.Notes,
			"open loop: arrivals are paced at the offered rate regardless of service capacity; latency is measured from the arrival stamp (queue wait included)")
	}
	if r.Crashes > 0 {
		t.Notes = append(t.Notes,
			fmt.Sprintf("%d holders crashed inside their critical sections (spec crash ops); their keys were recovered by lease TTL expiry", r.Crashes))
	}
	if r.Lost > 0 {
		t.Notes = append(t.Notes,
			fmt.Sprintf("%d grants were lost mid-cycle to fencing or node failure (tolerated: failover run; exclusion is judged by server counters)", r.Lost))
	}
	return t
}

// runState is the bookkeeping shared by every goroutine of one run.
type runState struct {
	cfg      Config
	spec     workload.Spec
	keys     []string
	owners   []atomic.Int64
	deadline time.Time // zero when Duration is unset

	next       atomic.Int64 // closed-loop global attempt allocator
	arrivals   atomic.Int64 // open-loop arrivals emitted (incl. shed)
	shed       atomic.Int64
	violations atomic.Int64
	aborts     atomic.Int64
	tryMisses  atomic.Int64
	crashes    atomic.Int64
	lost       atomic.Int64
	stop       atomic.Bool

	mu       sync.Mutex
	firstErr error

	// Per-client latency buffers keep the measured hot loop free of
	// shared state; they merge into one histogram after the run.
	latencies [][]float64
}

func (st *runState) fail(err error) {
	st.stop.Store(true)
	st.mu.Lock()
	if st.firstErr == nil {
		st.firstErr = err
	}
	st.mu.Unlock()
}

// client is one goroutine's session plus its traffic stream.
type client struct {
	st      *runState
	me      int
	lk      Locker
	checker HoldsChecker
	bounded DeadlineLocker
	trier   TryLocker
	crasher Crasher
	src     *workload.Source
	token   int64
}

// newClient opens session me and checks that the backend offers every
// surface the op mix needs.
func (st *runState) newClient(me int) (*client, error) {
	lk, err := st.cfg.NewLocker(me)
	if err != nil {
		return nil, fmt.Errorf("loadgen: client %d: %w", me, err)
	}
	c := &client{
		st: st, me: me, lk: lk,
		src:   workload.NewSource(st.spec, uint64(me)),
		token: int64(me + 1),
	}
	c.checker, _ = lk.(HoldsChecker)
	if st.spec.Ops.Timed > 0 {
		var ok bool
		if c.bounded, ok = lk.(DeadlineLocker); !ok {
			lk.Close()
			return nil, fmt.Errorf("loadgen: client %d: the op mix has timed acquires but the backend session (%T) offers no AcquireFor", me, lk)
		}
	}
	if st.spec.Ops.Try > 0 {
		var ok bool
		if c.trier, ok = lk.(TryLocker); !ok {
			lk.Close()
			return nil, fmt.Errorf("loadgen: client %d: the op mix has try acquires but the backend session (%T) offers no TryAcquire", me, lk)
		}
	}
	if st.spec.Ops.Crash > 0 {
		var ok bool
		if c.crasher, ok = lk.(Crasher); !ok {
			lk.Close()
			return nil, fmt.Errorf("loadgen: client %d: the op mix has crash ops but the backend session (%T) offers no Crash", me, lk)
		}
	}
	return c, nil
}

// Cycle outcomes.
const (
	cycleDone = iota
	cycleAbort
	cycleMiss
	cycleCrash
	cycleLost
	cycleFailed
)

// grantLost reports whether err is a lost-grant rejection: the holder
// was fenced out (lease expiry, ownership handoff) or the node behind
// the grant stopped answering. Only these classes are tolerated in
// TolerateGrantLoss runs; any other error still fails the run.
func grantLost(err error) bool {
	var redir *lockclient.RedirectError
	return errors.Is(err, lockclient.ErrFenced) ||
		errors.Is(err, lockclient.ErrUnavailable) ||
		errors.Is(err, lease.ErrFenced) ||
		errors.As(err, &redir)
}

// runCycle executes one acquire→CS→release cycle on keys[k]. latFrom is
// where the latency clock started (the arrival stamp in open loop, the
// acquire start in closed loop); timeout bounds timed acquires. On
// cycleFailed the run error has already been recorded.
func (c *client) runCycle(k int, kind workload.OpKind, sess workload.Session, latFrom time.Time, timeout time.Duration) int {
	st := c.st
	name := st.keys[k]
	switch kind {
	case workload.OpCrash:
		// Die holding the key: no latency sample, no owner-token traffic
		// (a dead holder can't clear the token, and a false violation is
		// worse than no check), no release. Recovery is the lease
		// subsystem's job.
		crashed, err := c.crasher.Crash(name)
		if err != nil {
			if st.cfg.TolerateGrantLoss && grantLost(err) {
				return cycleAbort // the key's owner was mid-failover
			}
			st.fail(fmt.Errorf("loadgen: client %d crashing on %s: %w", c.me, name, err))
			return cycleFailed
		}
		if !crashed {
			return cycleAbort // died waiting, never held the key
		}
		return cycleCrash
	case workload.OpTry:
		ok, err := c.trier.TryAcquire(name)
		if err != nil {
			if st.cfg.TolerateGrantLoss && grantLost(err) {
				return cycleAbort // the key's owner was mid-failover
			}
			st.fail(fmt.Errorf("loadgen: client %d try-acquiring %s: %w", c.me, name, err))
			return cycleFailed
		}
		if !ok {
			return cycleMiss
		}
	case workload.OpTimed:
		ok, err := c.bounded.AcquireFor(name, timeout)
		if err != nil {
			if st.cfg.TolerateGrantLoss && grantLost(err) {
				return cycleAbort
			}
			st.fail(fmt.Errorf("loadgen: client %d acquiring %s: %w", c.me, name, err))
			return cycleFailed
		}
		if !ok {
			return cycleAbort
		}
	default:
		if err := c.lk.Acquire(name); err != nil {
			if st.cfg.TolerateGrantLoss && grantLost(err) {
				return cycleAbort
			}
			st.fail(fmt.Errorf("loadgen: client %d acquiring %s: %w", c.me, name, err))
			return cycleFailed
		}
	}
	lat := float64(time.Since(latFrom).Microseconds())
	// Critical section: owner checks, then the payload work. In a
	// TolerateGrantLoss run the client-side token CAS is skipped — a
	// holder fenced out by an ownership handoff cannot clear its token,
	// so the CAS would report false violations; the servers' own
	// counters carry the exclusion verdict there.
	tokenCheck := !st.cfg.TolerateGrantLoss
	if tokenCheck && !st.owners[k].CompareAndSwap(0, c.token) {
		st.violations.Add(1)
	}
	if c.checker != nil {
		held, err := c.checker.Holds(name)
		if err != nil {
			if st.cfg.TolerateGrantLoss && grantLost(err) {
				return cycleLost
			}
			// A transport/backend failure is a run error, not evidence
			// the lock misbehaved.
			st.fail(fmt.Errorf("loadgen: client %d holds check on %s: %w", c.me, name, err))
			return cycleFailed
		}
		if !held {
			if st.cfg.TolerateGrantLoss {
				return cycleLost // fenced away between grant and check
			}
			st.violations.Add(1)
		}
	}
	workload.Spin(sess.CSWork)
	if tokenCheck && !st.owners[k].CompareAndSwap(c.token, 0) {
		st.violations.Add(1)
	}
	if err := c.lk.Release(name); err != nil {
		if st.cfg.TolerateGrantLoss && grantLost(err) {
			return cycleLost
		}
		st.fail(fmt.Errorf("loadgen: client %d releasing %s: %w", c.me, name, err))
		return cycleFailed
	}
	st.latencies[c.me] = append(st.latencies[c.me], lat)
	return cycleDone
}

// closedLoop is one client's classic benchmark loop: draw, acquire, run
// the critical section, release, think.
func (st *runState) closedLoop(me int) {
	c, err := st.newClient(me)
	if err != nil {
		st.fail(err)
		return
	}
	defer c.lk.Close()
	timeout := st.spec.Ops.Timeout()
	for !st.stop.Load() {
		if st.cfg.Cycles > 0 && st.next.Add(1) > int64(st.cfg.Cycles) {
			return
		}
		if st.cfg.Duration > 0 && !time.Now().Before(st.deadline) {
			return
		}
		k := c.src.PickKey(st.cfg.Keys)
		kind := c.src.NextOp()
		sess := c.src.NextSession()
		switch c.runCycle(k, kind, sess, time.Now(), timeout) {
		case cycleFailed:
			return
		case cycleAbort:
			st.aborts.Add(1)
		case cycleMiss:
			st.tryMisses.Add(1)
		case cycleCrash:
			st.crashes.Add(1)
		case cycleLost:
			st.lost.Add(1)
		}
		workload.Spin(sess.RemainderWork)
	}
}

// Run executes the load.
func Run(cfg Config) (*Result, error) {
	cfg, spec, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	st := &runState{
		cfg:       cfg,
		spec:      spec,
		keys:      make([]string, cfg.Keys),
		owners:    make([]atomic.Int64, cfg.Keys),
		latencies: make([][]float64, cfg.Clients),
	}
	for i := range st.keys {
		st.keys[i] = fmt.Sprintf("key-%04d", i)
	}
	if cfg.Duration > 0 {
		st.deadline = time.Now().Add(cfg.Duration)
	}

	start := time.Now()
	var wg sync.WaitGroup
	if spec.Open() {
		backlog := spec.Arrival.MaxBacklog
		if backlog == 0 {
			backlog = 4 * cfg.Clients
		}
		arrivals := make(chan time.Time, backlog)
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.pace(arrivals)
		}()
		for i := 0; i < cfg.Clients; i++ {
			wg.Add(1)
			go func(me int) {
				defer wg.Done()
				st.openLoop(me, arrivals)
			}(i)
		}
	} else {
		for i := 0; i < cfg.Clients; i++ {
			wg.Add(1)
			go func(me int) {
				defer wg.Done()
				st.closedLoop(me)
			}(i)
		}
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if st.firstErr != nil {
		return nil, st.firstErr
	}

	var merged stats.Histogram
	for _, buf := range st.latencies {
		for _, lat := range buf {
			merged.Add(lat)
		}
	}
	cycles := int64(merged.N())
	res := &Result{
		Clients:        cfg.Clients,
		Keys:           cfg.Keys,
		ConnsPerSocket: spec.ConnsPerSocket,
		Profile:        spec.Profile,
		KeyDist:        spec.Keys.Dist,
		Arrival:        spec.Arrival.Process,
		Cycles:         cycles,
		Seconds:        elapsed,
		Arrivals:       st.arrivals.Load(),
		Shed:           st.shed.Load(),
		Violations:     st.violations.Load(),
		Aborts:         st.aborts.Load(),
		TryMisses:      st.tryMisses.Load(),
		Crashes:        st.crashes.Load(),
		Lost:           st.lost.Load(),
		OpTimeoutMS:    spec.Ops.TimeoutMS,
	}
	if spec.Ops.Timed == 0 {
		res.OpTimeoutMS = 0
	}
	res.LatencyP50 = merged.Percentile(50)
	res.LatencyP90 = merged.Percentile(90)
	res.LatencyP99 = merged.Percentile(99)
	res.LatencyMax = merged.Percentile(100)
	if attempts := cycles + res.Aborts; attempts > 0 {
		res.AbortRate = float64(res.Aborts) / float64(attempts)
	}
	if elapsed > 0 {
		res.Throughput = float64(cycles) / elapsed
		if spec.Open() {
			res.OfferedPerSec = float64(res.Arrivals) / elapsed
		}
	}
	return res, nil
}

// ManagerLocker adapts one client's view of an in-process
// lockmgr.Manager to the Locker interface, with session bookkeeping so
// Holds serves as the backend owner check. It drives the manager's
// allocation-free Lease API, so the measured hot loop stays off the
// heap. One ManagerLocker per client goroutine.
type ManagerLocker struct {
	mgr    *lockmgr.Manager
	leases map[string]lockmgr.Lease
}

// NewManagerLocker opens a session on mgr.
func NewManagerLocker(mgr *lockmgr.Manager) *ManagerLocker {
	return &ManagerLocker{mgr: mgr, leases: make(map[string]lockmgr.Lease)}
}

// Acquire blocks until this session holds name.
func (l *ManagerLocker) Acquire(name string) error {
	if _, held := l.leases[name]; held {
		return fmt.Errorf("loadgen: session already holds %q", name)
	}
	lease, err := l.mgr.AcquireLeaseCtx(context.Background(), name)
	if err != nil {
		return err
	}
	l.leases[name] = lease
	return nil
}

// AcquireFor implements DeadlineLocker over the manager's deadline-
// bounded acquire: an attempt that cannot complete within d withdraws
// cleanly and reports (false, nil).
func (l *ManagerLocker) AcquireFor(name string, d time.Duration) (bool, error) {
	if _, held := l.leases[name]; held {
		return false, fmt.Errorf("loadgen: session already holds %q", name)
	}
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	lease, err := l.mgr.AcquireLeaseCtx(ctx, name)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return false, nil
		}
		return false, err
	}
	l.leases[name] = lease
	return true, nil
}

// TryAcquire implements TryLocker over the manager's bounded probe: a
// lost race reports (false, nil) without waiting out the holder.
func (l *ManagerLocker) TryAcquire(name string) (bool, error) {
	if _, held := l.leases[name]; held {
		return false, fmt.Errorf("loadgen: session already holds %q", name)
	}
	lease, ok, err := l.mgr.TryAcquireLease(name)
	if err != nil || !ok {
		return false, err
	}
	l.leases[name] = lease
	return true, nil
}

// Release gives a held name back.
func (l *ManagerLocker) Release(name string) error {
	lease, held := l.leases[name]
	if !held {
		return fmt.Errorf("loadgen: session does not hold %q", name)
	}
	delete(l.leases, name)
	return l.mgr.Release(lease)
}

// Holds implements HoldsChecker from the session's bookkeeping.
func (l *ManagerLocker) Holds(name string) (bool, error) {
	_, held := l.leases[name]
	return held, nil
}

// Close releases anything the session still holds.
func (l *ManagerLocker) Close() error {
	for name, lease := range l.leases {
		delete(l.leases, name)
		if err := l.mgr.Release(lease); err != nil {
			return err
		}
	}
	return nil
}
