package chaos

// The multi-node harness and the kill-a-node failover scenario: a real
// lockd cluster over loopback — per node a lock manager, a lease-running
// server, and a gossip membership participant — with one member killed
// mid-load. The invariants under test are the cluster spec's: zero
// mutual-exclusion violations through the handoff, every key owned by
// the dead node re-acquirable within the failure detector's budget, and
// per-key fencing tokens strictly increasing across the ownership
// change.

import (
	"context"
	"fmt"
	"net"
	"time"

	"anonmutex/internal/cluster"
	"anonmutex/internal/loadgen"
	"anonmutex/internal/lockmgr"
	"anonmutex/internal/workload"
	"anonmutex/lockd"
	"anonmutex/lockd/client"
)

// The failover scenario's shape: three nodes (one dies, two survive to
// agree on the handoff) under the crash-under-load scenario's load —
// eight keys, eight open-loop clients, 500 arrivals a second, a tenth of
// them crash ops, as in cmd/anonlockd's TestProcess/failover cases.
const (
	clusterNodes      = 3
	clusterKeys       = 8
	clusterClients    = 8
	clusterRatePerSec = 500
)

// clusterConfig parameterizes a clustered scenario run.
type clusterConfig struct {
	Config
	// Proxy turns on server-side forwarding: a node that receives an op
	// for a foreign key relays it to the owner over the inter-node pool
	// instead of redirecting the client. The failover invariants are
	// identical — the mode changes who chases the new owner, not what
	// the cluster promises.
	Proxy bool
}

// clusterMember is one node of the harness cluster.
type clusterMember struct {
	mgr      *lockmgr.Manager
	srv      *lockd.Server
	node     *cluster.Node
	addr     string
	serveErr chan error
	killed   bool
}

// kill takes the member down the crash way: the gossip socket closes
// silently (peers find out via the failure detector, exactly as for a
// real crash) and the server is shut down with an already-expired
// context, so no drain happens and held grants die with the node. The
// manager's violation counter is captured before teardown.
func (m *clusterMember) kill() uint64 {
	m.killed = true
	violations := m.mgr.Violations()
	m.node.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m.srv.Shutdown(ctx)
	<-m.serveErr
	m.mgr.Close() // corpse grants leak by design; the error is the point
	return violations
}

// clusterHarness is the running cluster.
type clusterHarness struct {
	members []*clusterMember
	// violations accumulates counters captured from killed members.
	violations uint64
}

// startClusterHarness brings up clusterNodes clustered lockd servers
// with gossip timings derived from the lease TTL — Interval = TTL/4 (min
// 10ms), SuspectAfter = TTL, DeadAfter = 2×TTL — and waits for every
// member to see the full cluster alive.
func startClusterHarness(cfg clusterConfig) (*clusterHarness, error) {
	h := &clusterHarness{}
	interval := cfg.TTL / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	var seeds []string
	for i := 0; i < clusterNodes; i++ {
		mgr, err := lockmgr.New(lockmgr.Config{HandlesPerLock: 8})
		if err != nil {
			h.stop()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			mgr.Close()
			h.stop()
			return nil, err
		}
		node, err := cluster.Start(cluster.Config{
			ID:           fmt.Sprintf("chaos-%d", i),
			Addr:         ln.Addr().String(),
			GossipAddr:   "127.0.0.1:0",
			Seeds:        seeds,
			Interval:     interval,
			SuspectAfter: cfg.TTL,
			DeadAfter:    2 * cfg.TTL,
		})
		if err != nil {
			ln.Close()
			mgr.Close()
			h.stop()
			return nil, err
		}
		seeds = append(seeds, node.GossipAddr())
		srv := lockd.NewServer(mgr)
		srv.LeaseTTL = cfg.TTL
		srv.Cluster = node
		srv.Proxy = cfg.Proxy
		m := &clusterMember{mgr: mgr, srv: srv, node: node, addr: ln.Addr().String(), serveErr: make(chan error, 1)}
		go func() { m.serveErr <- srv.Serve(ln) }()
		h.members = append(h.members, m)
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, m := range h.members {
		for {
			alive := 0
			for _, mem := range m.node.View().Members {
				if mem.State == cluster.StateAlive {
					alive++
				}
			}
			if alive == clusterNodes {
				break
			}
			if time.Now().After(deadline) {
				h.stop()
				return nil, fmt.Errorf("chaos: cluster never converged (%s sees %d/%d alive)", m.node.Self().ID, alive, clusterNodes)
			}
			time.Sleep(interval / 2)
		}
	}
	return h, nil
}

// addrs lists the members' lock-service addresses, dead ones included —
// that is what a real client's config looks like after a node dies.
func (h *clusterHarness) addrs() []string {
	addrs := make([]string, len(h.members))
	for i, m := range h.members {
		addrs[i] = m.addr
	}
	return addrs
}

// owner resolves name's owning member index from the first surviving
// node's view.
func (h *clusterHarness) owner(name string) (int, error) {
	for _, m := range h.members {
		if m.killed {
			continue
		}
		own, ok := m.node.Owner(name)
		if !ok {
			return 0, fmt.Errorf("chaos: no live owner for %s", name)
		}
		for i, cand := range h.members {
			if cand.node != nil && !cand.killed && cand.node.Self().ID == own.ID {
				return i, nil
			}
			if cand.killed && cand.addr == own.Addr {
				return i, nil
			}
		}
		return 0, fmt.Errorf("chaos: owner %s of %s is not a harness member", own.ID, name)
	}
	return 0, fmt.Errorf("chaos: every member is dead")
}

// stop tears down the surviving members. Survivors must close clean —
// a leaked grant on a survivor is a scenario failure.
func (h *clusterHarness) stop() error {
	var first error
	for _, m := range h.members {
		if m == nil || m.killed {
			continue
		}
		m.node.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		if err := m.srv.Shutdown(ctx); err != nil && first == nil {
			first = fmt.Errorf("chaos: shutdown: %w", err)
		}
		cancel()
		if err := <-m.serveErr; err != nil && first == nil {
			first = fmt.Errorf("chaos: serve: %w", err)
		}
		h.violations += m.mgr.Violations()
		if err := m.mgr.Close(); err != nil && first == nil {
			first = fmt.Errorf("chaos: grants leaked on a survivor: %w", err)
		}
	}
	return first
}

// runClusterFailover is the kill-a-node scenario body: open-loop zipf
// load with a crash fraction through the cluster-routed client, one
// member (an owner of probed keys) killed at half duration, and after the load drains a
// full-keyspace probe that measures recovery and checks per-key token
// monotonicity across the handoff.
func runClusterFailover(ccfg clusterConfig) (*Report, error) {
	var err error
	if ccfg.Config, err = ccfg.Config.withDefaults(); err != nil {
		return nil, err
	}
	h, err := startClusterHarness(ccfg)
	if err != nil {
		return nil, err
	}
	r := &Report{}
	bound := 2*ccfg.TTL + recoverySlack
	cl, err := client.Dial(client.Options{Addrs: h.addrs(), Heartbeat: ccfg.Heartbeat, CrashTimeout: bound})
	if err != nil {
		h.stop()
		return nil, err
	}
	defer cl.Close()

	// Pre-kill probe: acquire every key once and remember its fencing
	// token — the floor the post-failover grants must clear.
	probe, err := cl.Open()
	if err != nil {
		h.stop()
		return nil, err
	}
	defer probe.Close()
	keys := make([]string, clusterKeys)
	preTokens := make([]uint64, clusterKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%04d", i)
		if err := probe.Acquire(keys[i]); err != nil {
			h.stop()
			return nil, fmt.Errorf("chaos: pre-kill probe of %s: %w", keys[i], err)
		}
		preTokens[i] = probe.Token(keys[i])
		if preTokens[i] == 0 {
			h.stop()
			return nil, fmt.Errorf("chaos: pre-kill grant of %s carried no token", keys[i])
		}
		if err := probe.Release(keys[i]); err != nil {
			h.stop()
			return nil, fmt.Errorf("chaos: pre-kill release of %s: %w", keys[i], err)
		}
	}

	// The victim is the owner of the first key, so at least one probed
	// key is guaranteed to change hands.
	victim, err := h.owner(keys[0])
	if err != nil {
		h.stop()
		return nil, err
	}

	spec := workload.Spec{
		Seed:    ccfg.Seed,
		Keys:    workload.KeySpec{Dist: workload.KeyZipf},
		Arrival: workload.ArrivalSpec{Process: workload.ArrivalPoisson, RatePerSec: clusterRatePerSec},
		Ops:     workload.OpMix{Lock: 0.9, Crash: 0.1},
	}
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		time.Sleep(ccfg.Duration / 2)
		h.violations += h.members[victim].kill()
	}()
	res, err := loadgen.Run(loadgen.Config{
		Clients:           clusterClients,
		Keys:              clusterKeys,
		Duration:          ccfg.Duration,
		Workload:          &spec,
		TolerateGrantLoss: true,
		NewLocker: func(int) (loadgen.Locker, error) {
			return cl.Open()
		},
	})
	<-killed
	if err != nil {
		h.stop()
		return nil, err
	}
	r.Cycles = res.Cycles
	r.Crashes = res.Crashes
	r.Violations = uint64(res.Violations)

	// Recovery probe: every key — the moved ones included — must be
	// acquirable within the failure detector's budget (DeadAfter = 2×TTL)
	// plus slack, under a token strictly above its pre-kill grant. A key
	// a corpse holds frees on the same budget: its lease expires.
	for i, key := range keys {
		start := time.Now()
		ok, err := probe.AcquireFor(key, bound)
		took := time.Since(start)
		if err != nil || !ok {
			h.stop()
			return r, fmt.Errorf("chaos: %s not recovered within %v (ok=%v err=%v)", key, bound, ok, err)
		}
		if took > r.MaxRecovery {
			r.MaxRecovery = took
		}
		post := probe.Token(key)
		if post <= preTokens[i] {
			h.stop()
			return r, fmt.Errorf("chaos: %s token did not advance across failover: %d -> %d", key, preTokens[i], post)
		}
		if err := probe.Release(key); err != nil {
			h.stop()
			return r, fmt.Errorf("chaos: recovery release of %s: %w", key, err)
		}
	}

	// Fold in the survivors' counters (the routed Stats sums every
	// reachable member), stop the cluster, and enforce the shared
	// invariants over everything: client-observed failures, the
	// survivors' cross-check counters, and the victim's counter captured
	// at kill time.
	st, err := cl.Stats()
	if err != nil {
		h.stop()
		return r, err
	}
	r.Expired = st.Expired
	r.Revoked = st.Revoked
	r.FencedRejects = st.FencedRejects
	stopErr := h.stop()
	r.Violations += st.Violations + h.violations
	if r.Violations != 0 {
		return r, fmt.Errorf("chaos: %d mutual-exclusion violations across the failover", r.Violations)
	}
	if r.MaxRecovery > bound {
		return r, fmt.Errorf("chaos: failover recovery took %v, bound %v", r.MaxRecovery, bound)
	}
	return r, stopErr
}

// runKillNodeFailover adapts runClusterFailover to the registry's
// single-config shape.
func runKillNodeFailover(cfg Config) (*Report, error) {
	return runClusterFailover(clusterConfig{Config: cfg})
}

// runKillNodeFailoverProxy is the same kill-a-node scenario with every
// node in proxy mode, so mid-failover traffic crosses the inter-node
// forwarding pool — including forwards addressed to the corpse — and
// the grants the proxies hold on remote owners must be reaped when the
// forwarding node's client sessions end.
func runKillNodeFailoverProxy(cfg Config) (*Report, error) {
	return runClusterFailover(clusterConfig{Config: cfg, Proxy: true})
}
