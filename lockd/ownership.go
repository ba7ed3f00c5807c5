package lockd

// Request execution and, in clustered mode, key ownership: every op
// from either transport lands in handle(), and acquire-type ops pass
// the ownership gate first. The handoff argument when a key moves
// between nodes lives in wireCluster.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"anonmutex/internal/cluster"
	"anonmutex/internal/lease"
	"anonmutex/internal/lockmgr"
	"anonmutex/lockd/wire"
)

// wireCluster hooks the membership layer into the lease subsystem.
// Called once from Serve (under s.mu) when Cluster is set. Two effects,
// ordered so tokens stay sound across a handoff:
//
//  1. The token counter is floored to the current epoch's band
//     (cluster.TokenFloor), so every grant this node issues while the
//     view is at epoch E carries a token in [E<<32, (E+1)<<32).
//  2. On every membership change the floor rises to the new epoch's
//     band first, then every grant for a key this node no longer owns
//     is revoked through the lease manager's usual arbitration.
//
// Together: when a key moves from node A to node B at epoch E+1, A's
// outstanding grants (tokens < (E+1)<<32) are revoked — later ops on
// them answer Fenced — and B's first grant for the key already carries
// a token ≥ (E+1)<<32, strictly larger than anything A ever issued for
// it. Fencing-token monotonicity therefore survives ownership changes
// without any token state moving between nodes.
//
// The revocation sweep executes lock-manager holder exits and must
// not stall the gossip goroutines the OnChange callback runs on — a
// node busy revoking a large handoff would miss its own heartbeats and
// get marked suspect by its peers. The callback therefore only queues
// the view; a dedicated handoff worker applies every view in epoch
// order (no coalescing: a key that moves away and back must still have
// its interim grants revoked, exactly as synchronous semantics would).
// Floor raises happen only under handoffMu — in applyHandoff and at
// each attach in commitAcquire — never inline in the callback, so a
// token can never land in a band newer than the view its grant was
// validated under.
func (s *Server) wireCluster() {
	s.leases.EnsureTokenFloor(cluster.TokenFloor(s.Cluster.Epoch()))
	self := s.Cluster.Self().ID
	wake := make(chan struct{}, 1)
	quit := make(chan struct{})
	s.handoffQuit = quit
	s.wg.Add(1)
	go s.handoffLoop(self, wake, quit)
	s.Cluster.OnChange(func(v cluster.View) {
		s.mu.Lock()
		s.handoffPend = append(s.handoffPend, v)
		s.mu.Unlock()
		select {
		case wake <- struct{}{}:
		default:
		}
	})
}

// handoffLoop drains queued membership views and runs each view's
// revocation sweep, in epoch order. Pending sweeps left at shutdown
// are subsumed by leases.Close, which revokes everything.
func (s *Server) handoffLoop(self string, wake, quit <-chan struct{}) {
	defer s.wg.Done()
	for {
		select {
		case <-quit:
			return
		case <-wake:
		}
		for {
			s.mu.Lock()
			pending := s.handoffPend
			s.handoffPend = nil
			s.mu.Unlock()
			if len(pending) == 0 {
				break
			}
			// Callbacks fire from two gossip goroutines, so two views can
			// be queued slightly out of order; sweeping in epoch order
			// keeps the newest view's verdict the last word.
			sort.Slice(pending, func(i, j int) bool { return pending[i].Epoch < pending[j].Epoch })
			for _, v := range pending {
				s.applyHandoff(self, v)
			}
		}
	}
}

// applyHandoff runs one view's handoff: raise the token floor to the
// view's epoch band, then revoke every grant for a key this node no
// longer owns. It holds handoffMu so the scan inside RevokeIf is
// ordered after every grant attached under any earlier view — no
// grant can slip between the view change and the sweep.
func (s *Server) applyHandoff(self string, v cluster.View) {
	s.handoffMu.Lock()
	defer s.handoffMu.Unlock()
	s.leases.EnsureTokenFloor(cluster.TokenFloor(v.Epoch))
	s.leases.RevokeIf(func(name string) bool {
		owner, ok := v.Owner(name)
		return ok && owner.ID != self
	})
}

// checkOwner gates acquire-type ops in clustered mode: a key owned by
// another node is answered with a wrong_owner redirect naming that
// owner, and the request never touches the lock manager. Ops on grants
// this session already holds (release, heartbeat, holds) are not gated:
// if ownership moved, the membership-change hook has already revoked
// the grant, so those ops answer Fenced — the informative outcome —
// rather than a redirect to a node that never knew the grant.
//
// A view where the key has no owner (every member dead — a partitioned
// node's view of the world) refuses the acquire outright rather than
// granting what another partition may also grant.
//
// Owner and epoch come from one View snapshot: reading them separately
// could pair a stale owner address with a newer epoch and teach the
// client cache a wrong owner at that epoch.
func (s *Server) checkOwner(name string) (wire.Response, bool) {
	v := s.Cluster.View()
	owner, ok := v.Owner(name)
	if !ok {
		return wire.Response{Err: fmt.Sprintf("lockd: no live owner for %q", name)}, false
	}
	if owner.ID == v.Self.ID {
		return wire.Response{}, true
	}
	// The error text is stamped lazily (stampRedirect): in proxy mode the
	// redirect is usually consumed by a successful forward, and formatting
	// a string per forwarded op would be pure waste on that hot path.
	return wire.Response{WrongOwner: true, Owner: owner.Addr, Epoch: v.Epoch}, false
}

// stampRedirect fills in the human-readable error text of a redirect
// about to be answered to a client, completing what checkOwner left
// lazy. The text is exactly wire.WrongOwnerResponse's, so clients too
// old for the wrong_owner field see the same plain failure they always
// did.
func stampRedirect(name string, r wire.Response) wire.Response {
	if r.WrongOwner && r.Err == "" {
		r.Err = wire.WrongOwnerResponse(name, r.Owner, r.Epoch).Err
	}
	return r
}

// commitAcquire turns a lock the manager just granted into the
// session's grant. In clustered mode this is where the ownership gate
// is decided for real: the pre-acquire checkOwner only short-circuits
// the obvious redirect — an acquire that then blocked may complete
// long after the key moved to another node, and the view-change sweep
// cannot revoke a grant that does not exist yet. So ownership is
// re-checked here, under handoffMu, making (re-check, floor, attach)
// atomic with respect to the sweep and to other attachments: if this
// node still owns the key under the view read here, either the attach
// completes before any sweep that moves the key away (which then
// revokes it), or a later re-check sees the newer view and redirects.
// When ownership moved, the lock goes straight back to the manager —
// it never becomes a lease — and the client gets the redirect it would
// have gotten up front.
//
// The token floor is raised to the checked view's epoch band before
// the token is drawn, so a new owner's first grant is banded correctly
// even if its handoff sweep has not run yet; because no other floor
// raise can interleave (they all hold handoffMu), the token also
// cannot land in a band newer than the view it was validated under.
func (s *Server) commitAcquire(sess *session, name string, l lockmgr.Lease) wire.Response {
	if s.Cluster == nil {
		g, err := s.attachGrant(l)
		if err != nil {
			return wire.Response{Err: err.Error()}
		}
		sess.grants[name] = g
		return s.grantResponse(g)
	}
	s.handoffMu.Lock()
	v := s.Cluster.View()
	owner, ok := v.Owner(name)
	if !ok || owner.ID != v.Self.ID {
		s.handoffMu.Unlock()
		s.mgr.Release(l)
		if !ok {
			return wire.Response{Err: fmt.Sprintf("lockd: no live owner for %q", name)}
		}
		return wire.WrongOwnerResponse(name, owner.Addr, v.Epoch)
	}
	s.leases.EnsureTokenFloor(cluster.TokenFloor(v.Epoch))
	tok, err := s.leases.Attach(l)
	s.handoffMu.Unlock()
	if err != nil {
		// Attach released the lock on failure; the acquire is refused.
		return wire.Response{Err: err.Error()}
	}
	g := grant{l: l, token: tok}
	sess.grants[name] = g
	return s.grantResponse(g)
}

// handleAcquire is handle's acquire and try case. With block=true it
// always answers (done=true). With block=false — the connection
// reader's mode (handleInline) — it answers only when neither of the
// two waits on this path would be needed, and done=false means it
// stopped short of one: before forwarding a key another node owns (an
// inter-node round trip, which may itself block at the owner), or after
// the validations and one uncontended fast probe found the lock busy.
// Either way it leaves no residue, so re-submitting the same request
// through the blocking path is exactly an acquire that started a moment
// later.
func (s *Server) handleAcquire(connCtx context.Context, sess *session, req wire.Request, preBlock func(), block bool) (resp wire.Response, done bool) {
	if req.Name == "" {
		return needName(req.Op), true
	}
	if req.Op == wire.OpAcquire && req.TimeoutMS < 0 {
		return wire.Response{Err: fmt.Sprintf("lockd: negative timeout_ms %d", req.TimeoutMS)}, true
	}
	if _, held := sess.grants[req.Name]; held {
		return alreadyHeld(req.Name), true
	}
	if _, held := sess.remoteGrants[req.Name]; held {
		return alreadyHeld(req.Name), true
	}
	if s.Cluster != nil {
		if redirect, ok := s.checkOwner(req.Name); !ok {
			if !block && s.wouldForward(sess, redirect) {
				return wire.Response{}, false
			}
			return s.maybeForward(sess, req, redirect, preBlock), true
		}
	}
	if req.Op == wire.OpTryAcquire {
		l, ok, err := s.mgr.TryAcquireLease(req.Name)
		if err != nil {
			return wire.Response{Err: err.Error()}, true
		}
		if !ok {
			return wire.Response{OK: true, Acquired: false}, true
		}
		return s.commitAcquire(sess, req.Name, l), true
	}
	// Fast path: no contexts, no timers, no allocation — consume a
	// remembered cancel, then take the lock manager's uncontended
	// probe. Only a lock that is actually busy pays the slow path.
	if sess.beginFastAcquire(req.Name) {
		return wire.Response{OK: true, Aborted: true}, true
	}
	l, ok, err := s.mgr.AcquireFast(req.Name)
	cancelled := sess.endFastAcquire()
	if err != nil {
		return wire.Response{Err: err.Error()}, true
	}
	if ok {
		// A cancel that raced in during the attempt lost, exactly as a
		// cancel observed after a slow-path acquisition completes.
		return s.commitAcquire(sess, req.Name, l), true
	}
	if cancelled {
		return wire.Response{OK: true, Aborted: true}, true
	}
	if !block {
		return wire.Response{}, false
	}
	if preBlock != nil {
		preBlock()
	}
	base, baseCancel := s.acquireCtx(connCtx, req)
	defer baseCancel()
	ctx, cancel := sess.beginAcquire(base, req.Name)
	defer cancel()
	held, err := s.mgr.AcquireLeaseCtx(ctx, req.Name)
	sess.endAcquire()
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return wire.Response{OK: true, Aborted: true}, true
		}
		return wire.Response{Err: err.Error()}, true
	}
	return s.commitAcquire(sess, req.Name, held), true
}

// handle executes one request against the session. preBlock, when
// non-nil, is called right before an acquire commits to the blocking
// slow path — the transport uses it to flush responses batched so far,
// keeping the fast path's batching while never letting a contended
// acquire delay answers already owed.
func (s *Server) handle(connCtx context.Context, sess *session, req wire.Request, preBlock func()) wire.Response {
	switch req.Op {
	case wire.OpAcquire, wire.OpTryAcquire:
		resp, _ := s.handleAcquire(connCtx, sess, req, preBlock, true)
		return resp
	case wire.OpCancel:
		// The abort itself already happened out of band (or was
		// remembered) when the reader saw this line; this is just the
		// in-order acknowledgement.
		return wire.Response{OK: true}
	case wire.OpRelease:
		if req.Name == "" {
			return needName(req.Op)
		}
		if owner, held := sess.remoteGrants[req.Name]; held {
			return s.forwardRelease(sess, req, owner)
		}
		g, held := sess.grants[req.Name]
		if !held {
			return wire.Response{Err: fmt.Sprintf("lockd: session does not hold %q", req.Name)}
		}
		delete(sess.grants, req.Name)
		if err := s.releaseGrant(req.Name, g); err != nil {
			if errors.Is(err, lease.ErrFenced) {
				return wire.Response{Err: err.Error(), Fenced: true}
			}
			return wire.Response{Err: err.Error()}
		}
		return wire.Response{OK: true}
	case wire.OpHolds:
		if req.Name == "" {
			return needName(req.Op)
		}
		if owner, held := sess.remoteGrants[req.Name]; held {
			return s.forwardHeld(sess, req, owner)
		}
		g, held := sess.grants[req.Name]
		resp := wire.Response{OK: true, Holds: held}
		if held && s.leases != nil {
			resp.Token = g.token
			if rem, ok := s.leases.Remaining(req.Name, g.token); ok {
				resp.TTLMS = ttlMillis(rem)
			} else {
				// The lease expired under the session: the grant is gone
				// and the token stale, exactly as any other fenced op.
				delete(sess.grants, req.Name)
				resp.Holds = false
				resp.Fenced = true
			}
		}
		return resp
	case wire.OpHeartbeat:
		if s.leases == nil {
			// Leases off: an acknowledged no-op, so clients can always
			// send heartbeats unconditionally.
			return wire.Response{OK: true}
		}
		if req.Name != "" {
			if owner, held := sess.remoteGrants[req.Name]; held {
				return s.forwardHeld(sess, req, owner)
			}
			g, held := sess.grants[req.Name]
			if !held {
				return wire.Response{Err: fmt.Sprintf("lockd: session does not hold %q", req.Name)}
			}
			ttl, err := s.leases.Heartbeat(req.Name, g.token)
			if err != nil {
				// Only a fencing rejection means the grant is gone; a
				// journal commit failure leaves the lease live, and the
				// client should retry rather than drop its hold.
				if errors.Is(err, lease.ErrFenced) {
					delete(sess.grants, req.Name)
					return wire.Response{Err: err.Error(), Fenced: true}
				}
				return wire.Response{Err: err.Error()}
			}
			return wire.Response{OK: true, TTLMS: ttlMillis(ttl)}
		}
		// Bare heartbeat renews every grant the session holds, dropping
		// the ones whose leases already expired; Fenced flags that any
		// were dropped, TTLMS reports the tightest surviving deadline.
		var fenced bool
		var min time.Duration
		for name, g := range sess.grants {
			ttl, err := s.leases.Heartbeat(name, g.token)
			if err != nil {
				if errors.Is(err, lease.ErrFenced) {
					delete(sess.grants, name)
					fenced = true
				}
				continue
			}
			if min == 0 || ttl < min {
				min = ttl
			}
		}
		if len(sess.remotes) > 0 {
			s.heartbeatRemotes(sess, &fenced, &min)
		}
		return wire.Response{OK: true, Fenced: fenced, TTLMS: ttlMillis(min)}
	case wire.OpStats:
		c := s.mgr.Counters()
		st := &wire.Stats{
			Acquires:      c.Acquires,
			Releases:      c.Releases,
			Waits:         c.Waits,
			TryAcquires:   c.TryAcquires,
			TryFailures:   c.TryFailures,
			LockCreates:   c.LockCreates,
			Evictions:     c.Evictions,
			ResidentLocks: c.ResidentLocks,
			Aborts:        c.Aborts,
			LeaseTimeouts: c.LeaseTimeouts,
			Violations:    s.mgr.Violations(),
			Sessions:      s.Sessions(),
			Streams:       int(s.liveStreams.Load()),
		}
		if s.leases != nil {
			lc := s.leases.Counters()
			st.Expired = lc.Expired
			st.Revoked = lc.Revoked
			st.FencedRejects = lc.FencedRejects
		}
		return wire.Response{OK: true, Stats: st}
	case wire.OpPing:
		return wire.Response{OK: true}
	default:
		return wire.Response{Err: fmt.Sprintf("lockd: unknown op %q", req.Op)}
	}
}

func needName(op string) wire.Response {
	return wire.Response{Err: fmt.Sprintf("lockd: %s needs a name", op)}
}

func alreadyHeld(name string) wire.Response {
	return wire.Response{Err: fmt.Sprintf("lockd: session already holds %q", name)}
}

// ttlMillis reports a remaining TTL in milliseconds, rounded up so a
// live lease never reads 0.
func ttlMillis(d time.Duration) int64 {
	if d <= 0 {
		return 0
	}
	return int64((d + time.Millisecond - 1) / time.Millisecond)
}
