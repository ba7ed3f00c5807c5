package lockd

// Proxy-mode forwarding: the server side of cutting a cross-node
// acquire to one client-visible round trip. A clustered node with
// Proxy set, on receiving an acquire-type op for a key it does not
// own, forwards the op to the owner over a persistent inter-node
// connection — one pooled client.Mux per peer, one of its streams per
// forwarded client session — and relays the owner's answer, stamped
// with an owner hint so routing clients converge to direct routing.
// Without Proxy the node answers wrong_owner exactly as before. This
// file is forwarding policy only; the binary protocol's client side is
// lockd/client's, the same code every client program drives.
//
// The safety properties forwarding must not disturb:
//
//   - Fencing tokens stay owner-drawn. A forwarded acquire executes at
//     the owner under its commitAcquire — ownership re-check, token
//     floor, attach, all under the owner's handoffMu. The proxy holds
//     the grant only by proxy: in a session keyed to the forwarded
//     stream, released when the stream (or its socket) dies, exactly
//     as a directly connected client's grants are.
//
//   - Forwarding cannot loop. Inter-node connections set
//     wire.HelloForwarded in their preamble, which marks every session on
//     them noForward: a
//     node receiving a forwarded op for a key it believes belongs to
//     yet another node answers wrong_owner instead of forwarding
//     again, and the first proxy relays that redirect to the client.
//     Two nodes with divergent membership views therefore degrade to
//     the pre-proxy redirect dance after exactly one wasted hop; they
//     can never forward in a cycle.
//
//   - A dead proxy looks like a dead client. The owner's grants for a
//     forwarded stream die with the inter-node socket (connection
//     teardown → lease TTL as usual), so a proxy crash orphans
//     nothing beyond what a client crash already would.
//
// Forwarded release is fire-and-forget: the proxy deletes its record,
// answers the client OK, and sends the owner an OpReleaseNoAck, which it
// performs without answering. This halves the proxied release's cost (no
// owner round trip on the client's critical path, no response frame) and
// is safe — the release is ordered before any later op on the stream, a
// lost stream releases by socket teardown, and the only observable
// difference is that a release racing lease expiry reports OK instead of
// Fenced, which changes nothing about who may hold the lock. Named
// heartbeat and holds stay synchronous: their answers (TTL, fenced) are
// only worth relaying if they are the owner's truth.

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"anonmutex/lockd/client"
	"anonmutex/lockd/wire"
)

// proxyDialTimeout bounds one inter-node dial; a peer that cannot be
// reached within it degrades that op to a redirect.
const proxyDialTimeout = 2 * time.Second

// errPeerPoolClosed fails forwards attempted after Shutdown/Kill began.
var errPeerPoolClosed = errors.New("lockd: proxy peer pool closed")

// peerPool owns this node's inter-node sockets: one client.Mux per owner
// address, dialed on first use and replaced when it breaks.
type peerPool struct {
	// mu is held across a dial, so a dial still in progress when Close
	// runs can never leave a socket behind. The price — a slow dial to one
	// peer delays first forwards to the others, by proxyDialTimeout at
	// most — falls on opening a stream, once per forwarded session and
	// owner, never on an op of an open one.
	mu     sync.Mutex
	muxes  map[string]*client.Mux
	closed bool
}

// openStream opens a fresh forwarded stream to the node at addr.
func (pp *peerPool) openStream(addr string) (*client.Conn, error) {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	if pp.closed {
		return nil, errPeerPoolClosed
	}
	if m := pp.muxes[addr]; m != nil {
		if c, err := m.Open(); err == nil {
			return c, nil
		}
		// Open fails only once the socket is lost, and stays failed.
		m.Close()
		delete(pp.muxes, addr)
	}
	conn, err := net.DialTimeout("tcp", addr, proxyDialTimeout)
	if err != nil {
		return nil, err
	}
	m := client.NewMux(conn, wire.HelloForwarded)
	pp.muxes[addr] = m
	return m.Open()
}

// Close tears down every socket — failing every forward in flight, and
// leaving the owners to release the forwarded grants by connection
// teardown — and refuses new streams.
func (pp *peerPool) Close() {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	pp.closed = true
	for _, m := range pp.muxes {
		m.Close()
	}
	pp.muxes = nil
}

// remoteStream returns the session's forwarded stream to owner, opening
// one on first use. Lazy throughout: a session that never hits a
// foreign key never allocates any of this.
func (sess *session) remoteStream(s *Server, owner string) (*client.Conn, error) {
	if c := sess.remotes[owner]; c != nil {
		return c, nil
	}
	c, err := s.peers.openStream(owner)
	if err != nil {
		return nil, err
	}
	if sess.remotes == nil {
		sess.remotes = make(map[string]*client.Conn)
	}
	sess.remotes[owner] = c
	return c, nil
}

// dropRemote forgets a broken stream so the next forward redials, and
// drops every grant record that lived on it — those grants die with
// the socket at the owner.
func (sess *session) dropRemote(owner string, c *client.Conn) {
	if sess.remotes[owner] == c {
		delete(sess.remotes, owner)
	}
	for name, o := range sess.remoteGrants {
		if o == owner {
			delete(sess.remoteGrants, name)
		}
	}
}

// wouldForward reports whether maybeForward would make the inter-node
// round trip for redirect, the wrong_owner answer checkOwner produced,
// rather than return it: handleAcquire's non-blocking mode asks first.
func (s *Server) wouldForward(sess *session, redirect wire.Response) bool {
	return s.Proxy && !sess.noForward && redirect.WrongOwner && s.peers != nil
}

// maybeForward is the proxy-mode branch of the acquire/try ownership
// gate: redirect is the wrong_owner answer checkOwner produced; when
// forwarding is off (or this session's ops arrived over an inter-node
// connection — the hop cap) it is returned unchanged. Otherwise the op
// is forwarded to redirect.Owner and the owner's answer relayed,
// stamped with the owner hint. Any failure — dial, transport, or the
// owner's own divergent-view redirect — degrades to the redirect the
// client would have gotten anyway.
func (s *Server) maybeForward(sess *session, req wire.Request, redirect wire.Response, preBlock func()) wire.Response {
	if !s.wouldForward(sess, redirect) {
		return stampRedirect(req.Name, redirect)
	}
	// A cancel that raced ahead of this acquire must abort it here,
	// exactly as beginFastAcquire would have locally.
	if req.Op == wire.OpAcquire && sess.consumePendingCancel(req.Name) {
		return wire.Response{OK: true, Aborted: true}
	}
	owner, epoch := redirect.Owner, redirect.Epoch
	c, err := sess.remoteStream(s, owner)
	if err != nil {
		s.proxyFallbacks.Add(1)
		return stampRedirect(req.Name, redirect)
	}
	if preBlock != nil {
		// The forward is at least one network round trip (and may block
		// at the owner): push out responses batched so far first.
		preBlock()
	}
	sess.beginRemote(req.Name, c)
	fresp, err := c.Exchange(req)
	sess.endRemote()
	if err != nil {
		sess.dropRemote(owner, c)
		s.proxyFallbacks.Add(1)
		return stampRedirect(req.Name, redirect)
	}
	if fresp.WrongOwner {
		// The owner's view disagrees (hop 2): relay its redirect rather
		// than chase it — the client re-routes with fresher information.
		s.proxyFallbacks.Add(1)
		return fresp
	}
	s.proxyForwarded.Add(1)
	if fresp.Acquired {
		if sess.remoteGrants == nil {
			sess.remoteGrants = make(map[string]string)
		}
		sess.remoteGrants[req.Name] = owner
	}
	if fresp.OK {
		fresp.OwnerHint = true
		fresp.Owner = owner
		fresp.Epoch = epoch
	}
	return fresp
}

// forwardRelease releases a proxied grant: fire-and-forget on the
// stream's FIFO (ordered before any later op there), answered OK
// immediately. The owner performs an OpReleaseNoAck without answering,
// so a proxied acquire/release cycle draws exactly one response frame
// from it. If the stream is already gone the owner released the grant
// with the socket; either way the client no longer holds it.
func (s *Server) forwardRelease(sess *session, req wire.Request, owner string) wire.Response {
	delete(sess.remoteGrants, req.Name)
	c := sess.remotes[owner]
	if c == nil {
		return wire.Response{OK: true}
	}
	if err := c.ReleaseNoAck(req.Name); err != nil {
		sess.dropRemote(owner, c)
		return wire.Response{OK: true}
	}
	s.proxyForwarded.Add(1)
	return wire.Response{OK: true}
}

// forwardHeld forwards a holds or named-heartbeat op for a proxied
// grant, synchronously — TTL and fenced answers are only worth
// relaying if they are the owner's truth. A lost stream means the
// owner reaped the grant: the truthful answer is fenced.
func (s *Server) forwardHeld(sess *session, req wire.Request, owner string) wire.Response {
	c := sess.remotes[owner]
	if c == nil {
		delete(sess.remoteGrants, req.Name)
		return wire.Response{Err: fmt.Sprintf("lockd: proxied grant on %q lost with its owner connection", req.Name), Fenced: true}
	}
	fresp, err := c.Exchange(req)
	if err != nil {
		sess.dropRemote(owner, c)
		return wire.Response{Err: fmt.Sprintf("lockd: proxied grant on %q lost with its owner connection", req.Name), Fenced: true}
	}
	s.proxyForwarded.Add(1)
	if fresp.Fenced || (req.Op == wire.OpHolds && !fresp.Holds) {
		delete(sess.remoteGrants, req.Name)
	}
	return fresp
}

// heartbeatRemotes folds the session's proxied grants into a bare
// heartbeat: one forwarded bare heartbeat per owner stream, merging
// fenced and the tightest TTL with the local result. A broken stream
// counts as fenced — its grants died with the socket.
func (s *Server) heartbeatRemotes(sess *session, fenced *bool, min *time.Duration) {
	for owner, c := range sess.remotes {
		fresp, err := c.Exchange(wire.Request{Op: wire.OpHeartbeat})
		if err != nil {
			hadGrants := false
			for _, o := range sess.remoteGrants {
				if o == owner {
					hadGrants = true
					break
				}
			}
			sess.dropRemote(owner, c)
			if hadGrants {
				*fenced = true
			}
			continue
		}
		s.proxyForwarded.Add(1)
		if fresp.Fenced {
			*fenced = true
		}
		if ttl := time.Duration(fresp.TTLMS) * time.Millisecond; ttl > 0 && (*min == 0 || ttl < *min) {
			*min = ttl
		}
	}
}

// closeRemotes retires the session's forwarded streams so their owners
// release the proxied grants now instead of at lease expiry; part of a
// stream's retirement (conn.retire). Ending them waits — for the session's
// forwarded cancels to be written first (cancelRemote), then for the
// owner's ack — and retirement must not, so it runs on goroutines that
// end with that ack or with the socket: the peer pool's Close at the
// latest, which releases the same grants by connection teardown. Under
// Kill it does nothing: a simulated crash must leave remote grants to
// die by socket teardown, which Kill's peer-pool close performs —
// exactly what a real dead proxy's sockets would do.
func (s *Server) closeRemotes(sess *session) {
	if len(sess.remotes) == 0 || s.killed.Load() {
		return
	}
	for _, c := range sess.remotes {
		go func() {
			sess.remoteCancels.Wait()
			c.Close()
		}()
	}
	sess.remotes = nil
	sess.remoteGrants = nil
}

// ProxyCounters reports how many ops this node forwarded to their
// owners and how many cross-node ops degraded to a client-visible
// redirect (unreachable peer, broken stream, or a divergent owner
// view).
func (s *Server) ProxyCounters() (forwarded, fallbacks uint64) {
	return s.proxyForwarded.Load(), s.proxyFallbacks.Load()
}
