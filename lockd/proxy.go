package lockd

// Proxy-mode forwarding: the server side of cutting a cross-node
// acquire to one client-visible round trip. A clustered node with
// Proxy set, on receiving an acquire-type op for a key it does not
// own, forwards the op to the owner over a persistent inter-node
// connection — one pooled socket per peer, one logical stream per
// forwarded client session, ops batched per frame with the same
// last-writer-flushes discipline as the client mux — and relays the
// owner's answer, stamped with an owner hint so routing clients
// converge to direct routing. Without Proxy the node answers
// wrong_owner exactly as before.
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
// answers the client OK, and lets the release ride the stream's FIFO.
// This halves the proxied release's cost (no owner round trip on the
// client's critical path) and is safe — the release is ordered before
// any later op on the stream, a lost stream releases by socket
// teardown, and the only observable difference is that a release
// racing lease expiry reports OK instead of Fenced, which changes
// nothing about who may hold the lock. Named heartbeat and holds stay
// synchronous: their answers (TTL, fenced) are only worth relaying if
// they are the owner's truth.
//
// Fire-and-forget ops do not even pay their own inter-node write: they
// go out as OpReleaseNoAck — which the owner performs without
// answering — parked in the socket's pending buffer to ride ahead of
// the next frame anyone sends on it. An acquire/release cycle through
// a proxy therefore costs one inter-node round trip total: the release
// travels with the next acquire's frame, and the owner answers with
// exactly one response frame (the acquire's). A timer bounds the
// parking (deferredFlushDelay) so a session that goes quiet after a
// release still releases at the owner within a millisecond, not at
// lease expiry. Cancels are never parked: they chase a blocked
// acquire, so they take the immediate path.

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"anonmutex/lockd/wire"
)

// proxyDialTimeout bounds one inter-node dial; a peer that cannot be
// reached within it degrades that op to a redirect.
const proxyDialTimeout = 2 * time.Second

// deferredFlushDelay bounds how long a fire-and-forget op may wait in
// the pending buffer for a frame to piggyback on before the flush
// timer pushes it out on its own — the worst-case extra latency before
// a proxied release is visible at the owner when its session goes
// quiet.
const deferredFlushDelay = time.Millisecond

// errPeerPoolClosed fails forwards attempted after Shutdown/Kill began.
var errPeerPoolClosed = errors.New("lockd: proxy peer pool closed")

// fwdResult is one forwarded op's outcome: the owner's response, or the
// transport error that lost it.
type fwdResult struct {
	resp wire.Response
	err  error
}

// peerPool owns this node's inter-node sockets, one peer per owner
// address, dialed lazily and redialed on failure.
type peerPool struct {
	maxFrame int

	mu     sync.Mutex
	peers  map[string]*peer
	closed bool
}

func newPeerPool(maxFrame int) *peerPool {
	if maxFrame <= 0 {
		maxFrame = wire.DefaultMaxFrameBytes
	}
	return &peerPool{maxFrame: maxFrame, peers: make(map[string]*peer)}
}

// openStream opens a fresh forwarded stream to the node at addr,
// dialing or redialing the pooled socket as needed.
func (pp *peerPool) openStream(addr string) (*peerStream, error) {
	pp.mu.Lock()
	if pp.closed {
		pp.mu.Unlock()
		return nil, errPeerPoolClosed
	}
	p := pp.peers[addr]
	if p == nil {
		p = &peer{addr: addr, maxFrame: pp.maxFrame}
		pp.peers[addr] = p
	}
	pp.mu.Unlock()
	return p.open()
}

// Close fails every live forwarded stream and refuses new ones.
func (pp *peerPool) Close() {
	pp.mu.Lock()
	pp.closed = true
	peers := pp.peers
	pp.peers = nil
	pp.mu.Unlock()
	for _, p := range peers {
		p.close()
	}
}

// peer is one owner address's slot in the pool: at most one live socket
// (a peerConn generation), replaced wholesale when it breaks.
type peer struct {
	addr     string
	maxFrame int

	mu sync.Mutex // serializes (re)dials
	pc *peerConn  // current socket generation; nil before the first dial
}

func (p *peer) open() (*peerStream, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.pc != nil {
		if st, err := p.pc.openStream(); err == nil {
			return st, nil
		}
		// The generation is dead (sticky error); replace it.
		p.pc.conn.Close()
		p.pc = nil
	}
	conn, err := net.DialTimeout("tcp", p.addr, proxyDialTimeout)
	if err != nil {
		return nil, err
	}
	pc := newPeerConn(conn, p.maxFrame)
	preamble := wire.Preamble(wire.HelloForwarded)
	if _, err := conn.Write(preamble[:]); err != nil {
		conn.Close()
		return nil, err
	}
	p.pc = pc
	return pc.openStream()
}

func (p *peer) close() {
	p.mu.Lock()
	pc := p.pc
	p.pc = nil
	p.mu.Unlock()
	if pc != nil {
		pc.fail(errPeerPoolClosed)
	}
}

// peerConn is one socket generation to a peer, multiplexing forwarded
// streams with the same shape as the client mux: registration and the
// frame write happen under sendMu so the per-stream FIFO matches the
// write order, and a writer flushes only when no other writer is
// already waiting — the last one out pays the syscall.
//
// There is no standing read goroutine. Reading is demand-driven: a
// goroutine waiting for a response elects itself the connection's
// reader (readerOn), reads and demultiplexes frames — delivering other
// streams' responses along the way — until its own arrives, then steps
// down, closing readerGone so any waiter parked behind it can re-run
// the election and drain what remains. This keeps the response's
// delivery on the waiting goroutine itself: one netpoller wakeup
// instead of a reader wakeup plus a channel handoff, which is most of
// what an inter-node hop costs on a fast network. Responses nobody is
// waiting for (a posted cancel's ack) just sit in the socket buffer
// until the next waiter reads past them.
type peerConn struct {
	conn     net.Conn
	maxFrame int

	waiters atomic.Int32
	sendMu  sync.Mutex
	bw      *bufio.Writer
	wbuf    []byte
	// pending holds complete frames of fire-and-forget ops waiting to
	// piggyback on the next frame written; flushTimer pushes them out on
	// its own after deferredFlushDelay if nothing comes along. All
	// guarded by sendMu.
	pending    []byte
	flushTimer *time.Timer
	timerArmed bool

	// br and rbuf are owned by whichever goroutine currently holds the
	// readership; the readerOn transitions under mu order the handoffs.
	br   *bufio.Reader
	rbuf []byte

	mu         sync.Mutex
	streams    map[uint32]*peerStream
	nextID     uint32
	err        error // sticky: set once the socket is lost, fails all opens
	readerOn   bool
	readerGone chan struct{} // created by the first parked waiter; closed at stepdown
}

func newPeerConn(conn net.Conn, maxFrame int) *peerConn {
	return &peerConn{
		conn:     conn,
		maxFrame: maxFrame,
		bw:       bufio.NewWriter(conn),
		br:       bufio.NewReader(conn),
		streams:  make(map[uint32]*peerStream),
	}
}

func (pc *peerConn) openStream() (*peerStream, error) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.err != nil {
		return nil, pc.err
	}
	pc.nextID++
	st := &peerStream{pc: pc, id: pc.nextID}
	pc.streams[st.id] = st
	return st, nil
}

// forget drops a retired stream id so the map doesn't accumulate ended
// streams. Only called after the stream's last response arrived.
func (pc *peerConn) forget(id uint32) {
	pc.mu.Lock()
	delete(pc.streams, id)
	pc.mu.Unlock()
}

// send encodes req as one frame on st and registers ch to receive the
// matching response. ch must be buffered: a reader never blocks on
// a receiver. An error means nothing was sent and ch will not fire.
func (pc *peerConn) send(st *peerStream, req *wire.Request, ch chan fwdResult) error {
	pc.waiters.Add(1)
	pc.sendMu.Lock()
	pc.waiters.Add(-1)
	pc.wbuf = wire.BeginFrame(pc.wbuf[:0], st.id)
	var err error
	if pc.wbuf, err = wire.AppendRequestBin(pc.wbuf, req); err != nil {
		pc.sendMu.Unlock()
		return err
	}
	pc.wbuf = wire.EndFrame(pc.wbuf, 0)
	st.mu.Lock()
	if st.broken != nil {
		err = st.broken
		st.mu.Unlock()
		pc.sendMu.Unlock()
		return err
	}
	st.queue = append(st.queue, ch)
	st.mu.Unlock()
	werr := pc.writeLocked(pc.wbuf)
	if werr == nil && pc.waiters.Load() == 0 {
		werr = pc.bw.Flush()
	}
	pc.sendMu.Unlock()
	if werr != nil {
		// The registered ch hears the failure through fail, like every
		// other in-flight op on the generation.
		pc.fail(fmt.Errorf("lockd: proxy peer write: %w", werr))
	}
	return nil
}

// writeLocked pushes frame into the write buffer, preceded by any
// parked fire-and-forget frames — their FIFO registrations predate
// frame's, so they must hit the wire first. Draining the parked frames
// also disarms the flush timer: it has nothing left to push, and
// letting it fire anyway would cost a spurious wakeup per piggybacked
// op. Callers hold sendMu.
func (pc *peerConn) writeLocked(frame []byte) error {
	if len(pc.pending) > 0 {
		if _, err := pc.bw.Write(pc.pending); err != nil {
			return err
		}
		pc.pending = pc.pending[:0]
		if pc.timerArmed {
			pc.timerArmed = false
			pc.flushTimer.Stop()
		}
	}
	_, err := pc.bw.Write(frame)
	return err
}

// sendDeferred parks req in the pending buffer to ride ahead of the
// next frame written on the socket (arming the flush timer in case
// none comes), registering ch for the response exactly as send does.
// A nil ch registers nothing — for ops the server never answers
// (OpReleaseNoAck), where a registration would desync the FIFO.
// No syscall happens on this path.
func (pc *peerConn) sendDeferred(st *peerStream, req *wire.Request, ch chan fwdResult) error {
	pc.waiters.Add(1)
	pc.sendMu.Lock()
	pc.waiters.Add(-1)
	mark := len(pc.pending)
	pc.pending = wire.BeginFrame(pc.pending, st.id)
	var err error
	if pc.pending, err = wire.AppendRequestBin(pc.pending, req); err != nil {
		pc.pending = pc.pending[:mark]
		pc.sendMu.Unlock()
		return err
	}
	pc.pending = wire.EndFrame(pc.pending, mark)
	st.mu.Lock()
	if st.broken != nil {
		err = st.broken
		st.mu.Unlock()
		pc.pending = pc.pending[:mark]
		pc.sendMu.Unlock()
		return err
	}
	if ch != nil {
		st.queue = append(st.queue, ch)
	}
	st.mu.Unlock()
	if !pc.timerArmed {
		pc.timerArmed = true
		if pc.flushTimer == nil {
			pc.flushTimer = time.AfterFunc(deferredFlushDelay, pc.flushDeferred)
		} else {
			pc.flushTimer.Reset(deferredFlushDelay)
		}
	}
	pc.sendMu.Unlock()
	return nil
}

// flushDeferred is the flush timer's body: push out parked frames that
// found nothing to piggyback on within deferredFlushDelay.
func (pc *peerConn) flushDeferred() {
	pc.sendMu.Lock()
	pc.timerArmed = false
	if len(pc.pending) == 0 {
		pc.sendMu.Unlock()
		return
	}
	werr := pc.writeLocked(nil)
	if werr == nil && pc.waiters.Load() == 0 {
		werr = pc.bw.Flush()
	}
	pc.sendMu.Unlock()
	if werr != nil {
		pc.fail(fmt.Errorf("lockd: proxy peer write: %w", werr))
	}
}

// await delivers the result registered on ch, electing this goroutine
// the connection's reader when nobody else holds the readership. The
// protocol is lost-wakeup-proof: a waiter either takes the readership
// (and reads until its own response lands) or parks on both its channel
// and the incumbent reader's stepdown signal, re-running the election
// when the incumbent leaves — so a response can never be stranded in
// the socket with every waiter asleep.
func (pc *peerConn) await(ch chan fwdResult) fwdResult {
	for {
		select {
		case res := <-ch:
			return res
		default:
		}
		pc.mu.Lock()
		if pc.err != nil {
			pc.mu.Unlock()
			// The generation already failed: ch was registered, so fail
			// delivered (or the incumbent reader is a hair away from
			// delivering) its value.
			return <-ch
		}
		if !pc.readerOn {
			// Become the reader. The stepdown signal is created lazily by
			// the first waiter that actually parks behind us — the common
			// lone-waiter case never allocates it.
			pc.readerOn = true
			pc.mu.Unlock()
			res, ok := pc.readAsReader(ch)
			pc.mu.Lock()
			pc.readerOn = false
			gone := pc.readerGone
			pc.readerGone = nil
			pc.mu.Unlock()
			if gone != nil {
				close(gone)
			}
			if ok {
				return res
			}
			continue // the read failed; pick the delivered error up above
		}
		if pc.readerGone == nil {
			pc.readerGone = make(chan struct{})
		}
		gone := pc.readerGone
		pc.mu.Unlock()
		select {
		case res := <-ch:
			return res
		case <-gone:
		}
	}
}

// readAsReader reads and demultiplexes response frames — delivering
// every stream's responses to their registered channels — until own's
// response has been delivered, then returns it. ok is false when the
// socket died instead: the generation has been failed and every
// registered channel (own included) holds the error.
func (pc *peerConn) readAsReader(own chan fwdResult) (fwdResult, bool) {
	for {
		stream, ops, nbuf, err := wire.ReadFrame(pc.br, pc.rbuf, pc.maxFrame)
		pc.rbuf = nbuf
		if err != nil {
			pc.fail(fmt.Errorf("lockd: proxy peer read: %w", err))
			return fwdResult{}, false
		}
		if stream == 0 {
			// A connection-fatal protocol error from the owner.
			var resp wire.Response
			if _, derr := wire.DecodeResponseBin(ops, &resp); derr == nil && resp.Err != "" {
				pc.fail(fmt.Errorf("lockd: proxy peer: %s", resp.Err))
			} else {
				pc.fail(errors.New("lockd: proxy peer closed the connection"))
			}
			return fwdResult{}, false
		}
		pc.mu.Lock()
		st := pc.streams[stream]
		pc.mu.Unlock()
		if st == nil {
			pc.fail(fmt.Errorf("lockd: proxy peer answered unknown stream %d", stream))
			return fwdResult{}, false
		}
		for len(ops) > 0 {
			var res fwdResult
			if ops, err = wire.DecodeResponseBin(ops, &res.resp); err != nil {
				pc.fail(fmt.Errorf("lockd: proxy peer response: %w", err))
				return fwdResult{}, false
			}
			st.mu.Lock()
			var ch chan fwdResult
			if st.qhead < len(st.queue) {
				ch = st.queue[st.qhead]
				st.queue[st.qhead] = nil
				st.qhead++
				if st.qhead == len(st.queue) {
					st.queue = st.queue[:0]
					st.qhead = 0
				}
			}
			st.mu.Unlock()
			if ch == nil {
				pc.fail(fmt.Errorf("lockd: proxy peer sent an unrequested response on stream %d", stream))
				return fwdResult{}, false
			}
			ch <- res
		}
		select {
		case res := <-own:
			return res, true
		default:
		}
	}
}

// fail kills the generation: the error becomes sticky, the socket
// closes, and every waiter on every stream hears it.
func (pc *peerConn) fail(err error) {
	pc.mu.Lock()
	if pc.err != nil {
		pc.mu.Unlock()
		return
	}
	pc.err = err
	streams := pc.streams
	pc.streams = nil
	pc.mu.Unlock()
	pc.conn.Close()
	for _, st := range streams {
		st.fail(err)
	}
}

// peerStream is one forwarded client session's logical stream on a peer
// socket. Responses are matched to senders in FIFO order, which holds
// because registration and the frame write are atomic under sendMu.
type peerStream struct {
	pc *peerConn
	id uint32

	mu     sync.Mutex
	queue  []chan fwdResult
	qhead  int
	broken error
}

func (st *peerStream) fail(err error) {
	st.mu.Lock()
	st.broken = err
	waiters := st.queue[st.qhead:]
	st.queue = nil
	st.qhead = 0
	st.mu.Unlock()
	for _, ch := range waiters {
		if ch != nil {
			ch <- fwdResult{err: err}
		}
	}
}

// fwdChPool recycles the one-shot result channels of synchronous
// forwards. Only do may use it: its channels always receive exactly one
// value (the response, or the generation's failure) and are always
// drained before being returned, so a pooled channel is provably empty.
// postCancel's throwaway channels are NOT poolable — their response
// arrives after the sender moved on.
var fwdChPool = sync.Pool{New: func() any { return make(chan fwdResult, 1) }}

// do performs one synchronous forwarded round trip, reading the
// response off the socket itself when no other waiter already is.
func (st *peerStream) do(req *wire.Request) (wire.Response, error) {
	ch := fwdChPool.Get().(chan fwdResult)
	if err := st.pc.send(st, req, ch); err != nil {
		// Nothing was sent and ch was never registered; safe to recycle.
		fwdChPool.Put(ch)
		return wire.Response{}, err
	}
	res := st.pc.await(ch)
	fwdChPool.Put(ch)
	return res.resp, res.err
}

// post fires a release and forgets it: the op goes out as
// OpReleaseNoAck, which the owner performs without answering, so no
// FIFO slot is registered and the owner's response batching stays
// undisturbed — a proxied acquire/release cycle draws exactly one
// response frame from the owner. The frame is parked to piggyback on
// the next send (or the flush timer).
func (st *peerStream) post(req *wire.Request) error {
	noack := wire.Request{Op: wire.OpReleaseNoAck, Name: req.Name}
	return st.pc.sendDeferred(st, &noack, nil)
}

// postCancel forwards a cancel out of band, aborting a forwarded
// acquire blocked at the owner — the remote analogue of the local
// out-of-band cancelAcquire. Cancels are latency-critical, so they
// take the immediate path, never the pending buffer.
func (st *peerStream) postCancel(name string) {
	st.pc.send(st, &wire.Request{Op: wire.OpCancel, Name: name}, make(chan fwdResult, 1))
}

// end retires the stream at the owner (releasing its grants there) and
// forgets the id once the ack arrives — not before, or a reader would
// treat the in-flight ack as an unknown-stream protocol error. The
// spawned goroutine awaits (and so, on an otherwise idle connection,
// reads) the ack rather than just parking on the channel: with no
// standing read goroutine, an unread ack would strand the stream id in
// the map forever.
func (st *peerStream) end() {
	ch := make(chan fwdResult, 1)
	if err := st.pc.send(st, &wire.Request{Op: wire.OpEndStream}, ch); err != nil {
		return
	}
	go func() {
		st.pc.await(ch) // ack, or the generation's failure — either way the id is dead
		st.pc.forget(st.id)
	}()
}

// --- Server-side forwarding hooks (called from handle and teardown) ---

// remoteStream returns the session's forwarded stream to owner, opening
// one on first use. Lazy throughout: a session that never hits a
// foreign key never allocates any of this.
func (sess *session) remoteStream(s *Server, owner string) (*peerStream, error) {
	if st := sess.remotes[owner]; st != nil {
		return st, nil
	}
	st, err := s.peers.openStream(owner)
	if err != nil {
		return nil, err
	}
	if sess.remotes == nil {
		sess.remotes = make(map[string]*peerStream)
	}
	sess.remotes[owner] = st
	return st, nil
}

// dropRemote forgets a broken stream so the next forward redials, and
// drops every grant record that lived on it — those grants die with
// the socket at the owner.
func (sess *session) dropRemote(owner string, st *peerStream) {
	if sess.remotes[owner] == st {
		delete(sess.remotes, owner)
	}
	for name, o := range sess.remoteGrants {
		if o == owner {
			delete(sess.remoteGrants, name)
		}
	}
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
	if !s.Proxy || sess.noForward || !redirect.WrongOwner || s.peers == nil {
		return stampRedirect(req.Name, redirect)
	}
	// A cancel that raced ahead of this acquire must abort it here,
	// exactly as beginFastAcquire would have locally.
	if req.Op == wire.OpAcquire && sess.consumePendingCancel(req.Name) {
		return wire.Response{OK: true, Aborted: true}
	}
	owner, epoch := redirect.Owner, redirect.Epoch
	st, err := sess.remoteStream(s, owner)
	if err != nil {
		s.proxyFallbacks.Add(1)
		return stampRedirect(req.Name, redirect)
	}
	if preBlock != nil {
		// The forward is at least one network round trip (and may block
		// at the owner): push out responses batched so far first.
		preBlock()
	}
	sess.beginRemote(req.Name, st)
	fresp, err := st.do(&req)
	sess.endRemote()
	if err != nil {
		sess.dropRemote(owner, st)
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
// immediately. If the stream is already gone the owner released the
// grant with the socket; either way the client no longer holds it.
func (s *Server) forwardRelease(sess *session, req wire.Request, owner string) wire.Response {
	delete(sess.remoteGrants, req.Name)
	st := sess.remotes[owner]
	if st == nil {
		return wire.Response{OK: true}
	}
	if err := st.post(&req); err != nil {
		sess.dropRemote(owner, st)
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
	st := sess.remotes[owner]
	if st == nil {
		delete(sess.remoteGrants, req.Name)
		return wire.Response{Err: fmt.Sprintf("lockd: proxied grant on %q lost with its owner connection", req.Name), Fenced: true}
	}
	fresp, err := st.do(&req)
	if err != nil {
		sess.dropRemote(owner, st)
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
	for owner, st := range sess.remotes {
		fresp, err := st.do(&wire.Request{Op: wire.OpHeartbeat})
		if err != nil {
			hadGrants := false
			for _, o := range sess.remoteGrants {
				if o == owner {
					hadGrants = true
					break
				}
			}
			sess.dropRemote(owner, st)
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
// release the proxied grants now instead of at lease expiry. Both
// transports' teardowns call it. Under Kill it does nothing: a
// simulated crash must leave remote grants to die by socket teardown,
// which Kill's peer-pool close performs — exactly what a real dead
// proxy's sockets would do.
func (s *Server) closeRemotes(sess *session) {
	if len(sess.remotes) == 0 || s.killed.Load() {
		return
	}
	for _, st := range sess.remotes {
		st.end()
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
