package lockd

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"anonmutex/internal/cluster"
	"anonmutex/internal/journal"
	"anonmutex/internal/lease"
	"anonmutex/internal/lockmgr"
	"anonmutex/lockd/client"
	"anonmutex/lockd/wire"
)

// DefaultMaxLineBytes bounds one request line when Server.MaxLineBytes
// is zero.
const DefaultMaxLineBytes = 1 << 20

// errClusterNeedsLeases rejects a clustered server without leases: the
// ownership-handoff argument (revoke the old owner's grants, floor the
// new owner's tokens) only exists when grants carry fencing tokens.
var errClusterNeedsLeases = errors.New("lockd: clustered serving requires LeaseTTL > 0")

// errDurabilityNeedsLeases rejects a durable server without leases:
// the journal records lease transitions, so without the lease
// subsystem there is nothing to persist.
var errDurabilityNeedsLeases = errors.New("lockd: durable serving (Durability.Dir) requires LeaseTTL > 0")

// errProxyNeedsCluster rejects proxy mode on a single-node server:
// there is no owner to forward to without a membership view.
var errProxyNeedsCluster = errors.New("lockd: proxy mode requires Cluster")

// Durability configures the lease journal: when Dir is set (and
// LeaseTTL is positive), every lease transition is written to an
// append-only journal there, grants and renewals are committed per the
// Fsync policy before they are acknowledged, and a restarted server
// pointed at the same Dir recovers its grants — holders resume where
// they were instead of being expired. Set before Serve.
type Durability struct {
	// Dir is the journal directory. Empty disables persistence.
	Dir string
	// Fsync is the sync policy: "always" (the default — a grant is on
	// stable storage before the client hears about it), "interval"
	// (background fsync every FsyncInterval; a crash loses at most one
	// interval), or "off" (no explicit fsync; a machine crash may lose
	// anything the OS had not written back).
	Fsync string
	// FsyncInterval overrides the "interval" policy's period
	// (default 5ms).
	FsyncInterval time.Duration
	// CompactBytes overrides the journal size at which a snapshot is
	// taken and the log truncated (default 1 MiB).
	CompactBytes int64
}

// Server serves the lock protocol over a listener. Create with
// NewServer, start with Serve, stop with Shutdown.
//
// Every connection, binary or JSON, costs one goroutine — its reader —
// which executes every op that cannot block; its answers leave through a
// per-connection buffered writer in one write per read. A stream's
// goroutine, the context and the cancellation machinery are paid only
// while an op that can block (a contended acquire, above all) is owed
// its answer: an uncontended acquire takes the lock manager's
// context-free fast path (lockmgr.AcquireFast). On a binary connection
// the per-request path is also allocation-free at steady state: ops are
// decoded and responses encoded in place by the wire package's binary
// codec, and lock names are interned per connection.
type Server struct {
	mgr *lockmgr.Manager

	// MaxWait, when nonzero, caps how long any acquire may wait — a
	// server-side SLA floor under which every waiter eventually aborts
	// even if the client asked for an unbounded acquire. Set before
	// Serve.
	MaxWait time.Duration

	// MaxLineBytes bounds one request line (default DefaultMaxLineBytes).
	// A longer line is a protocol error: the client gets one explanatory
	// error response and the connection closes, instead of the silent
	// stop a scanner-based reader would produce. Set before Serve.
	MaxLineBytes int

	// MaxFrameBytes bounds one binary frame's payload (default
	// DefaultMaxFrameBytes). An oversized frame is a protocol error
	// answered once on stream 0 before the connection closes — the
	// binary mirror of MaxLineBytes. Set before Serve.
	MaxFrameBytes int

	// LeaseTTL, when positive, runs every grant under the lease
	// subsystem: acquires are stamped with fencing tokens, holders must
	// heartbeat within the TTL or their grants are forcibly revoked, and
	// later ops on a revoked grant are rejected as fenced. Zero (the
	// default) keeps the original lease-free behavior exactly. Set
	// before Serve. Required (positive) when Cluster is set.
	LeaseTTL time.Duration

	// Cluster, when non-nil, makes this server one node of a lock
	// cluster: acquires for keys this node does not own are answered
	// with a wrong_owner redirect naming the owner, and on every
	// membership change the grants for keys that moved away are revoked
	// while the token counter is floored to the new epoch's band — so a
	// key's new owner always issues strictly larger fencing tokens than
	// its old one. Nil (the default) is single-node mode, byte-identical
	// to a server without a cluster. Set before Serve.
	Cluster *cluster.Node

	// Proxy, when true (clustered mode only), makes this node forward
	// acquire-type ops for keys it does not own to their owner over a
	// pooled inter-node connection and relay the answer — one
	// client-visible round trip — instead of redirecting. Responses to
	// forwarded ops carry an owner hint so routing clients converge to
	// direct routing; ops that arrive already forwarded are never
	// forwarded again (they degrade to a redirect), capping forwarding
	// at one hop however membership views diverge. Set before Serve.
	Proxy bool

	// Durability, when Dir is set, persists lease state to a journal so
	// restarts recover grants. Requires LeaseTTL > 0. Set before Serve.
	Durability Durability

	// leases is non-nil iff LeaseTTL was positive when Serve started.
	leases *lease.Manager

	// journal is non-nil iff Durability.Dir was set when Serve started.
	journal *journal.Log

	// syncCommits is set at Serve when the journal's policy makes a grant
	// or a renewal wait for an fsync before it is acknowledged
	// (Durability.Fsync "always"): those ops can block (handleInline).
	syncCommits bool

	// recovered is how many grants Serve reattached from the journal.
	recovered uint64

	// killed marks a crash-simulated stop (Kill): session teardown must
	// not release grants — the "crash" has to leave them active for
	// recovery to find, in memory and in the journal alike.
	killed atomic.Bool

	// liveStreams counts live logical sessions: one per open stream of a
	// binary connection, one per JSON connection that has sent a line.
	liveStreams atomic.Int64

	// peers is the inter-node forwarding pool; non-nil iff Proxy was set
	// when Serve started.
	peers *peerPool

	// proxyForwarded counts ops forwarded to their owner; proxyFallbacks
	// counts cross-node ops that degraded to a client-visible redirect.
	proxyForwarded atomic.Uint64
	proxyFallbacks atomic.Uint64

	// handoffMu serializes clustered grant attachment (ownership re-check,
	// token-floor raise, token draw — commitAcquire) against the
	// membership-change revocation sweep (applyHandoff) and against other
	// attachments. The ordering this buys is the cluster-safety argument:
	// a grant attached under a view where this node owned the key either
	// completes before a sweep that moves the key away — and is then
	// revoked by that sweep — or starts after it, re-checks against the
	// new view, and answers a redirect instead of attaching. Exclusivity
	// between attachments keeps each token inside the band of the epoch
	// it was validated under: no concurrent floor raise can push a grant
	// validated under epoch E into E+1's band, where it could collide
	// with the tokens the key's next owner issues.
	handoffMu sync.Mutex

	mu          sync.Mutex
	ln          net.Listener
	conns       map[net.Conn]bool
	draining    bool
	handoffPend []cluster.View // views queued for the handoff worker (guarded by mu)
	handoffQuit chan struct{}  // closes when Shutdown begins; nil until wireCluster

	wg sync.WaitGroup
}

// NewServer wraps a lock manager. The caller keeps ownership of the
// manager (for stats or an in-process fast path); the server only
// acquires and releases through it.
func NewServer(mgr *lockmgr.Manager) *Server {
	return &Server{mgr: mgr, conns: make(map[net.Conn]bool)}
}

// Serve accepts connections until Shutdown closes the listener. It
// returns nil on graceful shutdown — including a Shutdown that happened
// before Serve was called — and the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return nil
	}
	s.ln = ln
	if s.Cluster != nil && s.LeaseTTL <= 0 {
		s.mu.Unlock()
		ln.Close()
		return errClusterNeedsLeases
	}
	if s.Durability.Dir != "" && s.LeaseTTL <= 0 {
		s.mu.Unlock()
		ln.Close()
		return errDurabilityNeedsLeases
	}
	if s.Proxy && s.Cluster == nil {
		s.mu.Unlock()
		ln.Close()
		return errProxyNeedsCluster
	}
	if s.Proxy && s.peers == nil {
		s.peers = &peerPool{muxes: make(map[string]*client.Mux)}
	}
	if s.leases == nil && s.LeaseTTL > 0 {
		cfg := lease.Config{TTL: s.LeaseTTL}
		if s.Durability.Dir != "" && s.journal == nil {
			pol, err := journal.ParseSync(s.Durability.Fsync)
			if err != nil {
				s.mu.Unlock()
				ln.Close()
				return err
			}
			jn, _, err := journal.Open(s.Durability.Dir, journal.Options{
				Sync:         pol,
				SyncEvery:    s.Durability.FsyncInterval,
				CompactBytes: s.Durability.CompactBytes,
			})
			if err != nil {
				s.mu.Unlock()
				ln.Close()
				return err
			}
			s.journal = jn
			s.syncCommits = pol == journal.SyncAlways
			cfg.Journal = jn
		}
		lm, err := lease.New(s.mgr, cfg)
		if err != nil {
			if s.journal != nil {
				s.journal.Close()
				s.journal = nil
			}
			s.mu.Unlock()
			ln.Close()
			return err
		}
		s.leases = lm
		s.recovered = lm.Recovered()
	}
	if s.Cluster != nil && s.handoffQuit == nil {
		s.wireCluster()
	}
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = true
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Shutdown stops the server: it closes the listener, waits for sessions
// to finish until ctx expires, then force-closes the remaining
// connections and waits for their cleanup (every session grant is
// released and every in-flight acquire is reaped either way). It always
// leaves the server fully drained.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	ln := s.ln
	quit := s.handoffQuit
	s.handoffQuit = nil
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	if quit != nil {
		// Stop the handoff worker before waiting on s.wg (it is counted
		// there); its revocation work is subsumed by leases.Close below.
		close(quit)
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		<-done
	}
	// Every session has drained and released its live grants; what
	// remains in the lease manager are crash orphans (holders that
	// stopped heartbeating and kept their sockets open). Closing it
	// revokes them so the lock manager is fully checked in. The peer
	// pool closes only now — sessions needed it to retire their
	// forwarded streams during the drain above.
	s.mu.Lock()
	leases := s.leases
	jn := s.journal
	peers := s.peers
	s.mu.Unlock()
	if peers != nil {
		peers.Close()
	}
	if leases != nil {
		leases.Close()
	}
	// The journal closes after the lease manager: Close's revocations
	// are deliberately un-journaled (a graceful restart must recover
	// the orphans), so the close here just flushes and fsyncs what was
	// already recorded — an orderly shutdown never needs torn-tail
	// recovery.
	if jn != nil {
		jn.Close()
	}
	return nil
}

// Kill stops the server as kill -9 would, for crash testing: the
// listener and every connection close, but no grant is released, no
// lease revoked, and nothing further journaled — buffered journal
// frames are dropped exactly as a dead process drops them. A server
// opened later on the same Durability.Dir recovers what the sync
// policy guaranteed. Terminal: use instead of Shutdown, not before it.
func (s *Server) Kill() {
	s.killed.Store(true)
	s.mu.Lock()
	s.draining = true
	ln := s.ln
	quit := s.handoffQuit
	s.handoffQuit = nil
	conns := make([]net.Conn, 0, len(s.conns))
	for conn := range s.conns {
		conns = append(conns, conn)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	if quit != nil {
		close(quit)
	}
	for _, conn := range conns {
		conn.Close()
	}
	// The peer pool dies with the process: its sockets break, so owners
	// release this node's forwarded grants by connection teardown —
	// exactly what a real crash would look like to them — and any
	// forward blocked on a response fails immediately instead of
	// stalling the drain below.
	s.mu.Lock()
	peers := s.peers
	s.mu.Unlock()
	if peers != nil {
		peers.Close()
	}
	// Sessions drain first (their teardown is a no-op under killed),
	// then the lease manager halts without revoking, then the journal
	// drops its buffer — the order matters: nothing may journal or
	// commit after the journal is abandoned.
	s.wg.Wait()
	s.mu.Lock()
	leases := s.leases
	jn := s.journal
	s.mu.Unlock()
	if leases != nil {
		leases.Abandon()
	}
	if jn != nil {
		jn.Abandon()
	}
}

// Recovered reports how many grants were reattached from the journal
// when Serve started.
func (s *Server) Recovered() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovered
}

// Sessions reports the number of live connections.
func (s *Server) Sessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// acquireCtx derives the context governing one slow-path acquire from
// the session context, the request's timeout, and the server cap.
func (s *Server) acquireCtx(connCtx context.Context, req wire.Request) (context.Context, context.CancelFunc) {
	timeout := time.Duration(req.TimeoutMS) * time.Millisecond
	if s.MaxWait > 0 && (timeout == 0 || timeout > s.MaxWait) {
		timeout = s.MaxWait
	}
	if timeout > 0 {
		return context.WithTimeout(connCtx, timeout)
	}
	return context.WithCancel(connCtx)
}
