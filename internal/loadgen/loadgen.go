// Package loadgen drives a lock service under configurable load: a
// population of client goroutines, each on its own service session,
// acquires and releases keys drawn from the repository's unified
// traffic model (internal/workload), measures per-acquire latency and
// end-to-end throughput, and verifies mutual exclusion with a per-key
// owner token and the service's own holds check inside every critical
// section.
//
// One workload.Spec describes the whole run: the key-popularity
// distribution (uniform, zipf, hotset, shifting-hotset), the arrival
// process, the op mix (blocking lock, bounded trylock, deadline-bounded
// acquire — expired attempts withdraw cleanly and are reported as an
// abort count and rate — and crash, a holder that dies inside its
// critical section), and the session-length profile. Closed-loop specs
// behave like a classic benchmark: each client thinks between its own
// cycles, so the load adapts to the backend's speed. Open-loop specs
// (Poisson or bursty arrivals at an offered rate) decouple demand from
// capacity — the generator reports offered versus achieved throughput,
// shed arrivals, and the abort rate, which is what an abortable lock
// service's SLA behavior under overload actually looks like.
//
// The backend is one surface, Locker, which a lockd/client.Session
// satisfies as is: every run goes through the lock service's client,
// whether the server is a remote cluster or an in-process lockd on
// loopback (cmd/anonload runs both).
package loadgen

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"anonmutex/internal/stats"
	"anonmutex/internal/workload"
	lockclient "anonmutex/lockd/client"
)

// Locker is one client's session on the lock service: exactly the ops
// the generator issues. A lockd/client.Session satisfies it. A Locker
// belongs to one client goroutine.
type Locker interface {
	// Acquire blocks until the session holds name.
	Acquire(name string) error
	// AcquireFor bounds the attempt: giving up at the deadline is not an
	// error — the waiter withdraws cleanly, it reports (false, nil), and
	// the generator counts an abort.
	AcquireFor(name string, d time.Duration) (bool, error)
	// TryAcquire is a bounded probe that never waits out a holder's
	// critical section; a miss reports (false, nil) and is counted.
	TryAcquire(name string) (bool, error)
	// Release gives a held name back.
	Release(name string) error
	// Holds reports, from the backend's own bookkeeping, whether this
	// session holds name: the generator asks inside every critical
	// section and counts a false answer as a violation.
	Holds(name string) (bool, error)
	// Crash acquires name on a session of its own and then goes dark
	// holding it — no release, no heartbeat — so the key stays stuck
	// until the backend's lease TTL recovers it. It reports false when
	// the acquire could not be granted in time: the victim "died" while
	// still waiting, which the generator counts as an abort. The
	// generator never touches the owner token for a crashed hold: the
	// dead holder can't clear it, and the token protocol is exactly what
	// the successor's fencing is judged against.
	Crash(name string) (bool, error)
	// Close ends the session; the backend releases what it still holds.
	Close() error
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
		"every critical section runs an owner check: a per-key token (CAS in, CAS out) plus the backend's holds op")
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
	st    *runState
	me    int
	lk    Locker
	src   *workload.Source
	token int64
}

// newClient opens session me.
func (st *runState) newClient(me int) (*client, error) {
	lk, err := st.cfg.NewLocker(me)
	if err != nil {
		return nil, fmt.Errorf("loadgen: client %d: %w", me, err)
	}
	return &client{
		st: st, me: me, lk: lk,
		src:   workload.NewSource(st.spec, uint64(me)),
		token: int64(me + 1),
	}, nil
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
		errors.As(err, &redir)
}

// runCycle executes one acquire→CS→release cycle on keys[k]. latFrom is
// where the latency clock started (the arrival stamp in open loop, the
// acquire start in closed loop); timeout bounds timed acquires. On
// cycleFailed the run error has already been recorded.
func (c *client) runCycle(k int, kind workload.OpKind, sess workload.Session, latFrom time.Time, timeout time.Duration) int {
	st := c.st
	name := st.keys[k]
	var (
		ok   bool
		err  error
		verb = "acquiring"
	)
	switch kind {
	case workload.OpCrash:
		// Die holding the key: no latency sample, no owner-token traffic
		// (a dead holder can't clear the token, and a false violation is
		// worse than no check), no release. Recovery is the lease
		// subsystem's job.
		verb = "crashing on"
		ok, err = c.lk.Crash(name)
	case workload.OpTry:
		verb = "try-acquiring"
		ok, err = c.lk.TryAcquire(name)
	case workload.OpTimed:
		ok, err = c.lk.AcquireFor(name, timeout)
	default:
		ok, err = true, c.lk.Acquire(name)
	}
	if err != nil {
		if st.cfg.TolerateGrantLoss && grantLost(err) {
			return cycleAbort // the key's owner was mid-failover
		}
		st.fail(fmt.Errorf("loadgen: client %d %s %s: %w", c.me, verb, name, err))
		return cycleFailed
	}
	switch {
	case kind == workload.OpCrash && ok:
		return cycleCrash
	case kind == workload.OpTry && !ok:
		return cycleMiss
	case !ok:
		return cycleAbort // timed out, or a crasher died waiting
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
	held, err := c.lk.Holds(name)
	if err != nil {
		if st.cfg.TolerateGrantLoss && grantLost(err) {
			return cycleLost
		}
		// A transport/backend failure is a run error, not evidence the
		// lock misbehaved.
		st.fail(fmt.Errorf("loadgen: client %d holds check on %s: %w", c.me, name, err))
		return cycleFailed
	}
	if !held {
		if st.cfg.TolerateGrantLoss {
			return cycleLost // fenced away between grant and check
		}
		st.violations.Add(1)
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

// tally counts one cycle's outcome and reports whether the client
// should go on (false once the run has failed).
func (st *runState) tally(outcome int) bool {
	switch outcome {
	case cycleFailed:
		return false
	case cycleAbort:
		st.aborts.Add(1)
	case cycleMiss:
		st.tryMisses.Add(1)
	case cycleCrash:
		st.crashes.Add(1)
	case cycleLost:
		st.lost.Add(1)
	}
	return true
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
		if !st.tally(c.runCycle(k, kind, sess, time.Now(), timeout)) {
			return
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
