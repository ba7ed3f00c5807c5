package lockd

// One logical session's state — a stream of a binary connection, or the
// whole of a JSON one — and the grant lifecycle around it: the
// out-of-band cancellation protocol, the single releaseGrant codepath,
// and the queue between a connection's reader and a stream's goroutine.

import (
	"context"
	"sync"

	"anonmutex/internal/lockmgr"
	"anonmutex/lockd/client"
	"anonmutex/lockd/wire"
)

// grant is one held lock plus the fencing token the lease subsystem
// stamped on it (0 when leases are disabled).
type grant struct {
	l     lockmgr.Lease
	token uint64
}

// session is one stream's state. Whoever executes the stream's ops — its
// goroutine while it has one, the connection's reader otherwise — owns
// grants; mu guards only the fields the reader touches at any time to
// implement out-of-band cancellation.
type session struct {
	grants map[string]grant

	// noForward marks a session whose ops arrived over an inter-node
	// proxy connection (wire.HelloForwarded): they were already forwarded
	// once, so foreign keys answer wrong_owner instead of forwarding
	// again — the structural hop cap that makes proxy loops impossible.
	noForward bool

	// remotes are this session's forwarded streams in proxy mode, one
	// per owner address; remoteGrants maps each proxied grant's name to
	// the owner address whose stream holds it. Both nil until the first
	// forward, so non-proxied sessions pay nothing. Owned like grants.
	remotes      map[string]*client.Conn
	remoteGrants map[string]string

	mu             sync.Mutex
	inflightName   string             // name of the acquire being processed
	inflightCancel context.CancelFunc // cancels a slow-path acquire; nil when none
	fastInflight   bool               // a fast-path attempt is running for inflightName
	fastCancelled  bool               // a cancel matched that fast attempt
	cancelPending  bool               // a cancel arrived with no acquire in flight
	pendingName    string             // the name that pending cancel targets ("" = any)
	remoteInflight *client.Conn       // stream carrying a forwarded acquire in flight; nil when none

	// remoteCancels counts forwarded cancels still in flight (cancelRemote);
	// closeRemotes retires the streams only behind them.
	remoteCancels sync.WaitGroup
}

func newSession() *session {
	return &session{grants: make(map[string]grant)}
}

// attachGrant stamps a freshly acquired lease with its fencing token
// (0 when leases are disabled). On error the lease subsystem has
// already released the underlying lock: the caller holds nothing and
// must not acknowledge the acquire.
func (s *Server) attachGrant(l lockmgr.Lease) (grant, error) {
	if s.leases != nil {
		tok, err := s.leases.Attach(l)
		if err != nil {
			return grant{}, err
		}
		return grant{l: l, token: tok}, nil
	}
	return grant{l: l}, nil
}

// grantResponse is the success response for a fresh acquire: the grant's
// fencing token plus the full TTL, so a client learns the heartbeat
// budget it must stay under without a separate negotiation round.
func (s *Server) grantResponse(g grant) wire.Response {
	resp := wire.Response{OK: true, Acquired: true, Token: g.token}
	if s.leases != nil {
		resp.TTLMS = ttlMillis(s.leases.TTL())
	}
	return resp
}

// releaseGrant gives one grant back through whichever authority owns
// it: the lease manager's token arbitration when leases run — so a
// session teardown racing a TTL expiry resolves to exactly one release
// — or the lock manager directly otherwise. The release op and a
// stream's retirement (conn.retire) both route here; there is exactly
// one release codepath. name is the key the session holds g under: a
// grant the lease manager has already revoked no longer pins its lock,
// which a full table may meanwhile have re-keyed to another name, so
// g.l.Name() is not read here.
func (s *Server) releaseGrant(name string, g grant) error {
	if s.killed.Load() {
		// A killed server releases nothing: the simulated crash must
		// leave every grant active — in memory and in the journal — for
		// restart recovery to find.
		return nil
	}
	if s.leases != nil {
		return s.leases.Release(name, g.token)
	}
	return s.mgr.Release(g.l)
}

// beginFastAcquire registers the context-free fast-path attempt on name,
// or consumes a remembered cancel (one that raced ahead of the acquire
// line), reported as aborted=true: the attempt must not run.
func (sess *session) beginFastAcquire(name string) (aborted bool) {
	sess.mu.Lock()
	if sess.cancelPending && (sess.pendingName == "" || sess.pendingName == name) {
		sess.cancelPending = false
		sess.pendingName = ""
		sess.mu.Unlock()
		return true
	}
	sess.inflightName = name
	sess.fastInflight = true
	sess.fastCancelled = false
	sess.mu.Unlock()
	return false
}

// endFastAcquire clears the fast-path registration, reporting whether a
// cancel arrived during the attempt.
func (sess *session) endFastAcquire() (cancelled bool) {
	sess.mu.Lock()
	cancelled = sess.fastCancelled
	sess.fastCancelled = false
	sess.fastInflight = false
	sess.inflightName = ""
	sess.mu.Unlock()
	return cancelled
}

// beginAcquire installs ctx-cancellation for a slow-path acquire on name
// and returns the context the acquisition must use. A remembered cancel
// is consumed here: the returned context is already cancelled.
func (sess *session) beginAcquire(parent context.Context, name string) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(parent)
	sess.mu.Lock()
	sess.inflightName = name
	sess.inflightCancel = cancel
	if sess.cancelPending && (sess.pendingName == "" || sess.pendingName == name) {
		sess.cancelPending = false
		sess.pendingName = ""
		cancel()
	}
	sess.mu.Unlock()
	return ctx, cancel
}

// endAcquire clears the in-flight registration.
func (sess *session) endAcquire() {
	sess.mu.Lock()
	sess.inflightName = ""
	sess.inflightCancel = nil
	sess.mu.Unlock()
}

// cancelAcquire implements the cancel op's out-of-band side: abort the
// in-flight acquire if its name matches — whichever path it is on —
// otherwise remember the cancellation for the session's next acquire.
// A forwarded acquire blocked at another node is aborted by forwarding
// the cancel on its stream (cancelRemote); if the cancel loses the race
// against the grant, the owner remembers it for the stream's next
// acquire, mirroring the local remembered-cancel semantics.
func (sess *session) cancelAcquire(name string) {
	sess.mu.Lock()
	switch {
	case sess.inflightCancel != nil && (name == "" || name == sess.inflightName):
		sess.inflightCancel()
	case sess.fastInflight && (name == "" || name == sess.inflightName):
		sess.fastCancelled = true
	case sess.remoteInflight != nil && (name == "" || name == sess.inflightName):
		sess.cancelRemote(name)
	default:
		sess.cancelPending = true
		sess.pendingName = name
	}
	sess.mu.Unlock()
}

// consumePendingCancel consumes a remembered cancel matching name (one
// that raced ahead of the acquire line), exactly as beginFastAcquire
// does for local acquires; the forwarding path checks it before paying
// the inter-node round trip.
func (sess *session) consumePendingCancel(name string) bool {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.cancelPending && (sess.pendingName == "" || sess.pendingName == name) {
		sess.cancelPending = false
		sess.pendingName = ""
		return true
	}
	return false
}

// beginRemote registers a forwarded acquire in flight on c so an
// out-of-band cancel (or the teardown abort) can reach it at the owner.
func (sess *session) beginRemote(name string, c *client.Conn) {
	sess.mu.Lock()
	sess.inflightName = name
	sess.remoteInflight = c
	sess.mu.Unlock()
}

func (sess *session) endRemote() {
	sess.mu.Lock()
	sess.inflightName = ""
	sess.remoteInflight = nil
	sess.mu.Unlock()
}

// abortRemote aborts a forwarded acquire blocked at another node — the
// remote analogue of the connection-context cancellation that reaps
// local acquires when a client disconnects. Called from connection
// teardown; the aborted response unblocks the stream's goroutine so it
// can settle and exit.
func (sess *session) abortRemote() {
	sess.mu.Lock()
	if sess.remoteInflight != nil {
		sess.cancelRemote("")
	}
	sess.mu.Unlock()
}

// cancelRemote forwards a cancel on the stream carrying the forwarded
// acquire in flight, from a goroutine of its own: Cancel waits for the
// owner's ack, which arrives behind the aborted acquire's answer, and
// neither caller may block on an inter-node round trip. The caller holds
// sess.mu with remoteInflight set, which orders the Add before endRemote
// and so before closeRemotes' Wait: the stream is never retired with a
// cancel still to be written on it (a cancel arriving on a retired id
// would reopen the id at the owner, and its ack would break the shared
// socket).
func (sess *session) cancelRemote(name string) {
	c := sess.remoteInflight
	sess.remoteCancels.Add(1)
	go func() {
		defer sess.remoteCancels.Done()
		c.Cancel(name) // a lost stream needs no cancel: its acquire died with it
	}()
}

// opQueue is the unbounded hand-off from a connection's reader to one
// stream's goroutine, together with the count of what that goroutine
// still owes: owed is the ops pushed whose answers have not yet reached
// the connection's writer — queued, mid-handle, or batched unflushed. It
// must be unbounded: were the reader ever to block on a full buffer, a
// client that pipelines requests behind a blocked acquire and then drops
// its connection would park it mid-handoff — it would never return to
// Read, never observe the EOF, and the dead session's acquire would
// compete on as a ghost. Memory is bounded by what the client actually
// sends; the backing array is reused (a head cursor instead of
// re-slicing), so a steady-state session allocates nothing per item.
//
// owed lives under the queue's own mutex, so "raise and push" and
// "settle, and am I idle" are each one critical section. The invariant
// (TestOpQueueStress holds the queue to it):
//
//   - one producer, the reader, which alone calls push and idle; at most
//     one consumer at a time, which alone calls tryPop and settle;
//   - push never blocks, and items come out in the order they went in,
//     each exactly once;
//   - a consumer exists exactly while owed > 0: the producer starts one
//     when push reports the 0 → 1 transition, and a consumer that settle
//     tells it has returned owed to 0 exits without touching the queue,
//     or the session, again. So whoever reads owed == 0 finds the queue
//     empty and everything the last consumer did already done, and a
//     consumer with nothing unsettled finds an item queued: it never
//     waits;
//   - a consumer that exits with owed > 0 (a retired stream, a failed
//     writer) is the stream's last: later pushes are never read.
type opQueue struct {
	mu    sync.Mutex
	items []wire.Request
	head  int
	owed  int
}

// push appends an op and raises owed. Never blocks. It reports the 0 → 1
// transition: the caller must then start the consumer.
func (q *opQueue) push(req wire.Request) (start bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.items = append(q.items, req)
	q.owed++
	return q.owed == 1
}

// tryPop removes the oldest op; ok is false when none is queued right
// now, which is the consumer's cue to flush what it has batched and
// settle.
func (q *opQueue) tryPop() (req wire.Request, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head == len(q.items) {
		return wire.Request{}, false
	}
	req = q.items[q.head]
	q.items[q.head] = wire.Request{}
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return req, true
}

// settle lowers owed by the n ops whose answers have reached the writer
// and reports whether that returned it to zero: the consumer must exit.
func (q *opQueue) settle(n int) (idle bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.owed -= n
	return q.owed == 0
}

// idle reports owed == 0: the producer's license to act in the
// consumer's place.
func (q *opQueue) idle() bool { return q.settle(0) }
