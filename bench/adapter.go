package main

// adapter.go is the only file of the benchmark that imports the
// repository. Every layer the workloads and the ladder drive is reached
// through the constructors below, so an API change in the repository is
// absorbed here and nowhere else. It uses only the entry points ROADMAP
// item 3 keeps: client.Dial, Server.Serve(net.Listener), the value-type
// lockmgr.Lease API, lease.Manager, journal.Open and cluster.Start.

import (
	"context"
	"fmt"
	"net"
	"time"

	"anonmutex"
	"anonmutex/internal/cluster"
	"anonmutex/internal/journal"
	"anonmutex/internal/lease"
	"anonmutex/internal/lockmgr"
	"anonmutex/lockd"
	"anonmutex/lockd/client"
)

// session is what a workload drives: one logical lock-holding session,
// over the network (client.Session) or in process (leaseSession).
type session interface {
	Acquire(name string) error
	Release(name string) error
	Holds(name string) (bool, error)
	Token(name string) uint64
	Close() error
}

// serverStats is the slice of the server's counter snapshot the
// per-layer metrics are computed from.
type serverStats struct {
	Waits, Creates, Evictions, Aborts, LeaseTimeouts, TryFailures uint64
	Expired, FencedRejects, Violations                            uint64
	Sessions, Streams                                             int
}

// lockClient is a dialed lock service: sessions plus the stats op.
type lockClient struct{ c client.Client }

// dialLockd opens a client on addr speaking proto ("binary" or "json"),
// packing perSocket sessions on each socket (binary only).
func dialLockd(addr, proto string, perSocket int) (*lockClient, error) {
	opts := client.Options{Addrs: []string{addr}, Proto: proto}
	if proto == client.ProtoBinary {
		opts.ConnsPerSocket = perSocket
	}
	c, err := client.Dial(opts)
	if err != nil {
		return nil, err
	}
	return &lockClient{c: c}, nil
}

// Open starts a session and pings it, which forces its socket and stream
// open: dialing is paid here and not inside the first measured acquire.
func (lc *lockClient) Open() (session, error) {
	s, err := lc.c.Open()
	if err != nil {
		return nil, err
	}
	if err := s.Ping(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

func (lc *lockClient) Stats() (serverStats, error) {
	st, err := lc.c.Stats()
	if err != nil {
		return serverStats{}, err
	}
	return serverStats{
		Waits: st.Waits, Creates: st.LockCreates, Evictions: st.Evictions,
		Aborts: st.Aborts, LeaseTimeouts: st.LeaseTimeouts, TryFailures: st.TryFailures,
		Expired: st.Expired, FencedRejects: st.FencedRejects, Violations: st.Violations,
		Sessions: st.Sessions, Streams: st.Streams,
	}, nil
}

func (lc *lockClient) Close() error { return lc.c.Close() }

// inprocStack is the single-process stack under the inproc workload and
// the lockmgr/lease/journal ladder rungs: a lock manager, optionally a
// lease manager over it, optionally journaled.
type inprocStack struct {
	mgr    *lockmgr.Manager
	leases *lease.Manager
	log    *journal.Log
}

// newInprocStack builds the stack. ttl == 0 leaves leases off;
// journalDir == "" leaves the journal off; fsync picks the journal's
// sync policy ("off" or "always").
func newInprocStack(ttl time.Duration, journalDir, fsync string) (*inprocStack, error) {
	mgr, err := lockmgr.New(lockmgr.Config{})
	if err != nil {
		return nil, err
	}
	st := &inprocStack{mgr: mgr}
	if ttl == 0 {
		return st, nil
	}
	cfg := lease.Config{TTL: ttl}
	if journalDir != "" {
		pol, err := journal.ParseSync(fsync)
		if err != nil {
			return nil, err
		}
		log, _, err := journal.Open(journalDir, journal.Options{Sync: pol})
		if err != nil {
			return nil, fmt.Errorf("opening journal: %w", err)
		}
		st.log = log
		cfg.Journal = log
	}
	st.leases, err = lease.New(mgr, cfg)
	if err != nil {
		if st.log != nil {
			st.log.Close()
		}
		return nil, err
	}
	return st, nil
}

func (st *inprocStack) Close() {
	if st.leases != nil {
		st.leases.Close()
	}
	if st.log != nil {
		st.log.Close()
	}
	st.mgr.Close()
}

// Stats reads the stack's counters directly, in the shape the network
// workloads get from the stats op.
func (st *inprocStack) Stats() serverStats {
	c := st.mgr.Counters()
	out := serverStats{
		Waits: c.Waits, Creates: c.LockCreates, Evictions: c.Evictions,
		Aborts: c.Aborts, LeaseTimeouts: c.LeaseTimeouts, TryFailures: c.TryFailures,
		Violations: st.mgr.Violations(),
	}
	if st.leases != nil {
		lc := st.leases.Counters()
		out.Expired, out.FencedRejects = lc.Expired, lc.FencedRejects
	}
	return out
}

// lockmgrCycle is one acquire+release through the lock manager alone
// (the ladder's lockmgr rung).
func (st *inprocStack) lockmgrCycle(ctx context.Context, name string) error {
	l, err := st.mgr.AcquireLeaseCtx(ctx, name)
	if err != nil {
		return err
	}
	return st.mgr.Release(l)
}

// leaseCycle is one acquire+release through the lease manager (the
// lease, journal and journal-fsync rungs).
func (st *inprocStack) leaseCycle(ctx context.Context, name string) error {
	g, err := st.leases.AcquireCtx(ctx, name)
	if err != nil {
		return err
	}
	return st.leases.Release(g.Name, g.Token)
}

// leaseSession drives the lease manager as one session of the inproc
// workload. It belongs to one goroutine and holds at most one lock at a
// time, which is all a cycle needs — so its state is the one grant, not
// a map the hot loop would pay for.
type leaseSession struct {
	st   *inprocStack
	name string // the most recent grant's name
	tok  uint64 // and its token
	held bool
}

func (st *inprocStack) Open() session { return &leaseSession{st: st} }

func (s *leaseSession) Acquire(name string) error {
	if s.held {
		return fmt.Errorf("inproc: acquire of %q while holding %q", name, s.name)
	}
	g, err := s.st.leases.AcquireCtx(context.Background(), name)
	if err != nil {
		return err
	}
	s.name, s.tok, s.held = name, g.Token, true
	return nil
}

func (s *leaseSession) Release(name string) error {
	if !s.held || s.name != name {
		return fmt.Errorf("inproc: release of %q: not held", name)
	}
	s.held = false
	return s.st.leases.Release(name, s.tok)
}

func (s *leaseSession) Holds(name string) (bool, error) {
	if !s.held || s.name != name {
		return false, nil
	}
	_, live := s.st.leases.Remaining(name, s.tok)
	return live, nil
}

func (s *leaseSession) Token(name string) uint64 {
	if s.name != name {
		return 0
	}
	return s.tok
}

func (s *leaseSession) Close() error { return nil }

// coreLock is one root-package RMWLock with one process handle (the
// ladder's core rung).
type coreLock struct{ p *anonmutex.RMWProcess }

func newCoreLock(n int) (*coreLock, error) {
	l, err := anonmutex.NewRMWLock(n)
	if err != nil {
		return nil, err
	}
	p, err := l.NewProcess()
	if err != nil {
		return nil, err
	}
	return &coreLock{p: p}, nil
}

func (c *coreLock) cycle() error {
	if err := c.p.Lock(); err != nil {
		return err
	}
	return c.p.Unlock()
}

// localServer is an in-process lockd.Server on a loopback listener (the
// ladder's tcp and cluster rungs).
type localServer struct {
	addr string
	srv  *lockd.Server
	mgr  *lockmgr.Manager
	node *cluster.Node
	done chan error
}

// serverOpts configures startLocalServer.
type serverOpts struct {
	leaseTTL time.Duration
	// wrap, when set, wraps the listener (the recording listener).
	wrap func(net.Listener) net.Listener
	// nodeID turns clustering on; seeds are peer gossip addresses.
	nodeID string
	seeds  []string
	proxy  bool
}

func startLocalServer(o serverOpts) (*localServer, error) {
	mgr, err := lockmgr.New(lockmgr.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &localServer{addr: ln.Addr().String(), mgr: mgr, done: make(chan error, 1)}
	ls.srv = lockd.NewServer(mgr)
	ls.srv.LeaseTTL = o.leaseTTL
	if o.nodeID != "" {
		// Slow failure detection: the ladder's serial loop must never be
		// mistaken for a dead peer, which would move keys mid-rung.
		ls.node, err = cluster.Start(cluster.Config{
			ID: o.nodeID, Addr: ls.addr, GossipAddr: "127.0.0.1:0", Seeds: o.seeds,
			Interval: 50 * time.Millisecond, SuspectAfter: 5 * time.Second, DeadAfter: 10 * time.Second,
		})
		if err != nil {
			ln.Close()
			return nil, err
		}
		ls.srv.Cluster = ls.node
		ls.srv.Proxy = o.proxy
	}
	if o.wrap != nil {
		ln = o.wrap(ln)
	}
	go func() { ls.done <- ls.srv.Serve(ln) }()
	return ls, nil
}

func (ls *localServer) gossipAddr() string { return ls.node.GossipAddr() }

// aliveMembers reports how many members this node's view holds alive.
func (ls *localServer) aliveMembers() int {
	alive := 0
	for _, m := range ls.node.View().Members {
		if m.State == cluster.StateAlive {
			alive++
		}
	}
	return alive
}

// owns reports whether this node owns key under its current view.
func (ls *localServer) owns(key string) bool {
	m, ok := ls.node.Owner(key)
	return ok && m.ID == ls.node.Self().ID
}

func (ls *localServer) violations() uint64 { return ls.mgr.Violations() }

func (ls *localServer) stop() error {
	if ls.node != nil {
		ls.node.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := ls.srv.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-ls.done; err != nil {
		return err
	}
	return ls.mgr.Close()
}
