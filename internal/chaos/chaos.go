// Package chaos is the crash-fault scenario registry for the lease
// subsystem: each scenario stands up a real lockd server over loopback
// with leases on, injects one specific failure — a SIGKILLed holder, a
// holder whose heartbeats stop while its socket stays healthy, a
// connection dropped mid-pipeline, a crash fraction folded into
// open-loop zipf load — and measures what the lease machinery promises
// to bound: zero mutual-exclusion violations, orphaned keys recovered
// within the TTL plus the revocation cost, and every post-expiry op by
// the dead holder rejected through its fencing token.
//
// Scenarios are pure in-process harnesses (no exec, no external
// daemons), so they run as ordinary tests and under -race; the CI
// chaos smoke additionally exercises the same failures against the
// real anonlockd binary with kill -9.
package chaos

import (
	"context"
	"fmt"
	"net"
	"time"

	"anonmutex/internal/lockmgr"
	"anonmutex/lockd"
	"anonmutex/lockd/client"
)

// Config parameterizes one scenario run. The zero value is usable:
// every field has a scenario-appropriate default.
type Config struct {
	// TTL is the server's lease TTL (default 50ms — short enough that a
	// scenario's recovery bound is observable in test time).
	TTL time.Duration
	// Heartbeat is the well-behaved clients' renewal interval (default
	// TTL/4). It must stay under TTL or the scenario would fence its
	// own survivors.
	Heartbeat time.Duration
	// Duration bounds the load phase of workload-driven scenarios
	// (default 400ms).
	Duration time.Duration
	// Seed drives the workload model (default 1).
	Seed uint64
}

func (c Config) withDefaults() (Config, error) {
	if c.TTL == 0 {
		c.TTL = 50 * time.Millisecond
	}
	if c.Heartbeat == 0 {
		c.Heartbeat = c.TTL / 4
	}
	if c.Duration == 0 {
		c.Duration = 400 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.TTL < 0 || c.Heartbeat < 0 || c.Duration < 0 {
		return c, fmt.Errorf("chaos: negative config")
	}
	if c.Heartbeat >= c.TTL {
		return c, fmt.Errorf("chaos: heartbeat %v must stay under TTL %v", c.Heartbeat, c.TTL)
	}
	return c, nil
}

// Report is what a scenario measured. Scenarios return an error for
// harness failures and broken invariants (a violation, an unfenced
// stale op, a recovery past its bound); the report carries the numbers
// so callers can print or assert on them.
type Report struct {
	// Violations is the sum of client-observed owner-check failures and
	// the server's own cross-check counter. Always 0 on success.
	Violations uint64 `json:"violations"`
	// Expired and Revoked are the server's lease-lifecycle counters:
	// TTL expiries of silent holders and explicit/teardown revocations.
	Expired uint64 `json:"expired"`
	Revoked uint64 `json:"revoked"`
	// FencedRejects counts stale-token ops the server rejected.
	FencedRejects uint64 `json:"fenced_rejects"`
	// Cycles and Crashes summarize workload-driven scenarios.
	Cycles  int64 `json:"cycles,omitempty"`
	Crashes int64 `json:"crashes,omitempty"`
	// Recovered counts the leases a restarted server rebuilt from its
	// journal (restart scenarios only).
	Recovered uint64 `json:"recovered,omitempty"`
	// MaxRecovery is the worst observed orphan-recovery time: how long
	// a contender waited for a key a dead holder had. The scenarios
	// assert it against their unavailability bound (2×TTL plus
	// scheduling slack) before returning.
	MaxRecovery time.Duration `json:"max_recovery"`
}

// Scenario is one registered failure injection.
type Scenario struct {
	Name string
	Doc  string
	Run  func(Config) (*Report, error)
}

// Scenarios lists the registry in a stable order.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name: "kill-9-holder-mid-cs",
			Doc:  "a holder's process dies abruptly inside its critical section (socket torn down, no release op); the server-side session teardown must free its grants for a blocked contender",
			Run:  runKillHolder,
		},
		{
			Name: "stop-heartbeat-mid-cs",
			Doc:  "a holder stalls inside its critical section with its socket healthy — heartbeats stop, nothing else changes; TTL expiry must recover the key and fence the holder's later ops",
			Run:  runStopHeartbeat,
		},
		{
			Name: "drop-connection-mid-pipeline",
			Doc:  "a multiplexed binary connection with grants across several streams is dropped with requests still in flight; every stream's grants must be reaped exactly once",
			Run:  runDropMidPipeline,
		},
		{
			Name: "stop-heartbeat-under-open-loop-zipf",
			Doc:  "open-loop zipf load with a crash fraction: some holders die silently under contention; the run must stay violation-free and every key must be acquirable within the recovery bound afterwards",
			Run:  runCrashUnderLoad,
		},
		{
			Name: "restart-under-load",
			Doc:  "a durable server is killed outright (kill -9 semantics: no teardown, journal buffer dropped) with holders mid-lease and churn in flight, then restarted on the same data directory; every held key must come back recovered, still excluding contenders until its original TTL runs out, with post-restart fencing tokens strictly above their pre-crash grants and zero violations",
			Run:  runRestartUnderLoad,
		},
		{
			Name: "kill-node-mid-failover",
			Doc:  "a three-node cluster under open-loop zipf load with a crash fraction has one member — an owner of live keys — killed outright; the handoff must stay violation-free, every moved key re-acquirable within the failure detector's budget, and every post-failover token strictly above its pre-kill grant",
			Run:  runKillNodeFailover,
		},
		{
			Name: "kill-node-mid-failover-proxy",
			Doc:  "the kill-a-node failover with every node in proxy mode: cross-node ops ride the inter-node forwarding pool, so the kill also severs live forwarded streams; the same invariants must hold — zero violations, recovery within the detector's budget, tokens strictly increasing",
			Run:  runKillNodeFailoverProxy,
		},
	}
}

// Find looks a scenario up by name.
func Find(name string) (Scenario, bool) {
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// recoverySlack pads the 2×TTL recovery bound for scheduler and
// network jitter: scenarios run with millisecond TTLs where a single
// descheduling is a visible fraction of the bound.
const recoverySlack = 250 * time.Millisecond

// harness is one scenario's server: a lease-running lockd over
// loopback.
type harness struct {
	mgr  *lockmgr.Manager
	srv  *lockd.Server
	addr string

	serveErr chan error
}

// startHarness starts a scenario's server. A non-empty dir makes it
// durable: it journals every grant under dir with fsync "always" — the
// restart scenario's whole point is that what was acknowledged survives
// the crash.
func startHarness(cfg Config, dir string) (*harness, error) {
	mgr, err := lockmgr.New(lockmgr.Config{HandlesPerLock: 8})
	if err != nil {
		return nil, err
	}
	srv := lockd.NewServer(mgr)
	srv.LeaseTTL = cfg.TTL
	if dir != "" {
		srv.Durability = lockd.Durability{Dir: dir, Fsync: "always"}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Close()
		return nil, err
	}
	h := &harness{mgr: mgr, srv: srv, addr: ln.Addr().String(), serveErr: make(chan error, 1)}
	go func() { h.serveErr <- srv.Serve(ln) }()
	return h, nil
}

// stop shuts the server down and closes the lock manager; a close
// error means grants leaked, which is itself a scenario failure. The
// short shutdown budget is deliberate: scenarios leave corpses'
// sockets open on purpose, and Shutdown force-closes whatever has not
// drained by the deadline (releasing its grants either way).
func (h *harness) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := h.srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("chaos: shutdown: %w", err)
	}
	if err := <-h.serveErr; err != nil {
		return fmt.Errorf("chaos: serve: %w", err)
	}
	if err := h.mgr.Close(); err != nil {
		return fmt.Errorf("chaos: grants leaked: %w", err)
	}
	return nil
}

// finishReport folds the server's post-run counters into the report
// and enforces the invariants every scenario shares: no violations
// anywhere, and recovery within the bound.
func (h *harness) finishReport(cfg Config, r *Report) error {
	c, err := client.DialConn(h.addr)
	if err != nil {
		return err
	}
	st, err := c.Stats()
	c.Close()
	if err != nil {
		return err
	}
	r.Violations += st.Violations + h.mgr.Violations()
	r.Expired = st.Expired
	r.Revoked = st.Revoked
	r.FencedRejects = st.FencedRejects
	if r.Violations != 0 {
		return fmt.Errorf("chaos: %d mutual-exclusion violations", r.Violations)
	}
	if bound := 2*cfg.TTL + recoverySlack; r.MaxRecovery > bound {
		return fmt.Errorf("chaos: orphan recovery took %v, bound %v", r.MaxRecovery, bound)
	}
	return nil
}

// acquireWithin measures one orphan recovery: a blocking acquire of
// name that must complete within the scenario bound. It returns the
// observed wait and leaves the key released.
func acquireWithin(addr, name string, bound time.Duration) (time.Duration, error) {
	c, err := client.DialConn(addr)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	start := time.Now()
	ok, err := c.AcquireFor(name, bound)
	took := time.Since(start)
	if err != nil {
		return took, fmt.Errorf("chaos: recovery acquire of %s: %w", name, err)
	}
	if !ok {
		return took, fmt.Errorf("chaos: %s not recovered within %v", name, bound)
	}
	if err := c.Release(name); err != nil {
		return took, fmt.Errorf("chaos: recovery release of %s: %w", name, err)
	}
	return took, nil
}
