// Package client is the Go client for the lockd network lock service:
// one Conn per session, typed methods over the wire protocol defined in
// lockd/wire — the only repository package this one imports, so a client
// binary links none of the server.
//
// Every Conn is a stream of a Mux, the package's one I/O engine (mux.go):
// a binary socket carries many streams, a newline-JSON socket exactly one
// (DialConn/NewConn). Requests are pipelined: any goroutine may issue a
// request while others are waiting for responses, and whichever goroutine
// holds the socket's read side — a waiting caller, or a reader goroutine
// it handed the side to — matches the server's in-order responses to
// their callers. That is what makes Cancel useful — it can chase an
// Acquire that is blocked on the same session — and what lets one socket
// carry overlapping traffic. Locks held by the session are released by
// the server when the stream or its socket closes. On a binary stream the
// per-request bookkeeping (the waiter slot a response is matched to) is
// pooled and responses are decoded in place, so a steady-state
// AcquireFor/Release cycle performs no heap allocations on the client;
// the JSON framing goes through encoding/json and allocates accordingly.
//
// The package has a second caller besides client programs: a proxy-mode
// lockd node forwards foreign-key ops to their owners over a Mux of its
// own (NewMux with wire.HelloForwarded), one stream per forwarded
// session, through Exchange, ReleaseNoAck, Cancel and Close. The mux is
// the repository's only client-side implementation of the binary
// protocol; the server package imports this one, never the reverse.
package client

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"anonmutex/lockd/wire"
)

// ErrAborted is returned by Acquire when the attempt was abandoned —
// cancelled by Cancel, expired server-side, or capped by the server's
// maximum wait — after withdrawing cleanly. AcquireFor reports the same
// outcome as (false, nil) instead.
var ErrAborted = errors.New("client: acquire aborted")

// ErrFenced marks an operation rejected because the session's lease on
// the lock expired or was revoked: its fencing token is stale and the
// lock may already be held by a successor. Returned (wrapped) by any
// op the server answers with fenced=true — typically a release or
// heartbeat issued after the holder paused past the lease TTL. Test
// with errors.Is.
var ErrFenced = errors.New("client: fenced: stale lease token")

// result is one matched response.
type result struct {
	resp wire.Response
	err  error
}

// waiterPool recycles the response-matching channels so a request does
// not allocate one. Each channel is buffered and receives exactly one
// result per checkout, so a recycled channel is always empty.
var waiterPool = sync.Pool{
	New: func() any { return make(chan result, 1) },
}

// Conn is one client session: one stream of a Mux. Methods are safe for
// concurrent use and pipeline over the socket. Mux.Open returns a stream
// of a binary socket; DialConn and NewConn return the one stream of a
// newline-JSON socket. The API is identical.
type Conn struct {
	mux    *Mux
	stream uint32

	mu     sync.Mutex
	queue  []chan result // FIFO of callers awaiting responses
	qhead  int           // first live entry; backing array is reused
	broken error         // set once the stream or its socket stops

	// tokMu guards tokens, the fencing token of each leased grant the
	// session holds — the client-side view the cluster failover property
	// tests compare across ownership changes. A release drops the entry.
	tokMu  sync.Mutex
	tokens map[string]uint64

	// hbMu guards the auto-heartbeat ticker; hbPaused suspends it
	// without tearing it down (chaos tests simulate a stalled holder
	// this way).
	hbMu     sync.Mutex
	hbStop   chan struct{}
	hbPaused atomic.Bool
}

// DialConn connects to a lockd server as one newline-JSON session.
// For the address-list front door (routing, redirects, crash ops behind
// one interface) use Dial.
func DialConn(addr string) (*Conn, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, err
	}
	return NewConn(c), nil
}

// NewConn wraps an already-established connection — a TCP or unix socket
// the caller dialed itself, or one end of a net.Pipe for in-process use —
// as a newline-JSON session: the one stream of a JSON-framed Mux. The
// Conn takes ownership of c, and its Close closes it.
func NewConn(c net.Conn) *Conn {
	st, _ := newMux(c, true, 0).open(1) // a fresh socket is neither broken nor full
	return st
}

// enqueue registers ch as the waiter of every request in reqs that the
// server answers — all but OpReleaseNoAck, for which a registration
// would never be matched and would desync the FIFO behind it — and
// reports how many it registered, each one an answer the mux is now owed.
// The caller holds the mux's sendMu, which orders its write, so queue
// order is wire order.
func (c *Conn) enqueue(reqs []wire.Request, ch chan result) (int, error) {
	c.mu.Lock()
	if c.broken != nil {
		err := c.broken
		c.mu.Unlock()
		return 0, fmt.Errorf("%w: %w", ErrUnavailable, err)
	}
	n := 0
	for i := range reqs {
		if reqs[i].Op != wire.OpReleaseNoAck {
			c.queue = append(c.queue, ch)
			n++
		}
	}
	c.mux.owed.Add(int64(n))
	c.mu.Unlock()
	return n, nil
}

// deliver hands res to the oldest waiter; false means no request was in
// flight, which breaks the socket (the reader's call). Waiter channels
// are buffered for every registration they carry, so this never blocks.
func (c *Conn) deliver(res result) bool {
	c.mu.Lock()
	if c.qhead == len(c.queue) {
		c.mu.Unlock()
		return false
	}
	ch := c.queue[c.qhead]
	c.queue[c.qhead] = nil
	c.qhead++
	if c.qhead == len(c.queue) {
		c.queue = c.queue[:0]
		c.qhead = 0
	}
	c.mux.owed.Add(-1)
	c.mu.Unlock()
	ch <- res
	return true
}

// fail breaks the session: all waiters are unblocked with err and later
// requests fail fast.
func (c *Conn) fail(err error) {
	c.mu.Lock()
	if c.broken == nil {
		c.broken = err
	}
	waiters := c.queue[c.qhead:]
	c.queue = nil
	c.qhead = 0
	c.mux.owed.Add(-int64(len(waiters)))
	c.mu.Unlock()
	for _, ch := range waiters {
		ch <- result{err: err}
	}
}

// Exchange executes one request/response exchange, waiting its turn in
// the response order, and returns the server's answer as it came:
// per-request failures (wrong_owner, fenced, any Err) stay in the
// Response, and the error reports only that the transport lost the
// exchange (wrapping ErrUnavailable) — the one-request form of Batch.
// The typed methods classify its answer into the client's error
// vocabulary; a proxy-mode server relays it untouched. req must be an op
// the server answers (not OpReleaseNoAck).
func (c *Conn) Exchange(req wire.Request) (wire.Response, error) {
	ch := waiterPool.Get().(chan result)
	reqs := [1]wire.Request{req}
	if err := c.mux.send(c, reqs[:], ch); err != nil {
		waiterPool.Put(ch)
		return wire.Response{}, fmt.Errorf("client: %s: %w", req.Op, err)
	}
	c.mux.await(ch, 1)
	res := <-ch
	waiterPool.Put(ch)
	if res.err != nil {
		return wire.Response{}, fmt.Errorf("client: %s: %w: %w", req.Op, ErrUnavailable, res.err)
	}
	return res.resp, nil
}

// do is Exchange plus the client's error vocabulary: wrong-owner
// rejections wrap a *RedirectError carrying the owner's address, fenced
// rejections wrap ErrFenced, any other rejection is a plain error.
func (c *Conn) do(req wire.Request) (wire.Response, error) {
	resp, err := c.Exchange(req)
	if err != nil || resp.OK {
		return resp, err
	}
	if resp.WrongOwner {
		return resp, fmt.Errorf("client: %s: %w",
			req.Op, &RedirectError{Name: req.Name, Owner: resp.Owner, Epoch: resp.Epoch})
	}
	if resp.Fenced {
		return resp, fmt.Errorf("client: %s: %s: %w", req.Op, resp.Err, ErrFenced)
	}
	return resp, fmt.Errorf("client: %s: %s", req.Op, resp.Err)
}

// noteToken records the fencing token of a grant on name (token 0: a
// grant without a lease), or forgets name's entry at its release. Token
// reports 0 for a name with no entry, so a lease-free session keeps no
// map at all, and a leased one an entry per name it holds.
func (c *Conn) noteToken(name string, token uint64) {
	c.tokMu.Lock()
	if token == 0 {
		delete(c.tokens, name)
	} else {
		if c.tokens == nil {
			c.tokens = make(map[string]uint64)
		}
		c.tokens[name] = token
	}
	c.tokMu.Unlock()
}

// Token reports the fencing token of the grant the session holds on name:
// 0 when it holds none, and always 0 on a lease-free server. Release
// clears it, so read it while holding — the quantity cluster-failover
// monotonicity is asserted over.
func (c *Conn) Token(name string) uint64 {
	c.tokMu.Lock()
	defer c.tokMu.Unlock()
	return c.tokens[name]
}

// doAcquire runs one acquire-type exchange, recording the fencing token
// when a grant came back, and returns the raw response.
func (c *Conn) doAcquire(req wire.Request) (wire.Response, error) {
	resp, err := c.do(req)
	if err == nil && resp.Acquired {
		c.noteToken(req.Name, resp.Token)
	}
	return resp, err
}

// acquireForRequest builds AcquireFor's wire request, rounding
// sub-millisecond deadlines up to 1ms rather than down to "forever".
func acquireForRequest(name string, timeout time.Duration) wire.Request {
	req := wire.Request{Op: wire.OpAcquire, Name: name, TimeoutMS: int64(timeout / time.Millisecond)}
	if timeout > 0 && req.TimeoutMS == 0 {
		req.TimeoutMS = 1
	}
	return req
}

// Acquire blocks until the session holds the named lock, or returns
// ErrAborted if the attempt was cancelled or capped server-side.
func (c *Conn) Acquire(name string) error {
	resp, err := c.doAcquire(wire.Request{Op: wire.OpAcquire, Name: name})
	if err != nil {
		return err
	}
	if resp.Aborted {
		return fmt.Errorf("%w: %s", ErrAborted, name)
	}
	return nil
}

// AcquireFor tries to acquire the named lock within timeout, reporting
// whether the session now holds it. Expiry (or a chasing Cancel) is not
// an error: the server withdraws the waiter cleanly and AcquireFor
// returns (false, nil).
func (c *Conn) AcquireFor(name string, timeout time.Duration) (bool, error) {
	resp, err := c.doAcquire(acquireForRequest(name, timeout))
	return resp.Acquired, err
}

// Cancel aborts the session's in-flight acquire — or, if none is in
// flight yet, the session's next one (the cancellation is remembered
// server-side, closing the race with a pipelined Acquire). With name ""
// it matches any acquire.
func (c *Conn) Cancel(name string) error {
	_, err := c.do(wire.Request{Op: wire.OpCancel, Name: name})
	return err
}

// TryAcquire reports whether the lock was available and is now held.
func (c *Conn) TryAcquire(name string) (bool, error) {
	resp, err := c.doAcquire(wire.Request{Op: wire.OpTryAcquire, Name: name})
	return resp.Acquired, err
}

// Release gives a held lock back. Whatever the answer, the session no
// longer holds name, and Token reports 0 for it.
func (c *Conn) Release(name string) error {
	c.noteToken(name, 0)
	_, err := c.do(wire.Request{Op: wire.OpRelease, Name: name})
	return err
}

// ReleaseNoAck gives a held lock back without waiting to hear so: the
// server performs the release and answers nothing, so no waiter is
// registered and the call returns once the request is handed to the
// connection — an ordinary send, which another sender may write for it.
// The release is ordered before every later op on the session. A release
// the server would have rejected (not held, fenced) is dropped silently;
// the error reports only a session that was already broken.
func (c *Conn) ReleaseNoAck(name string) error {
	c.noteToken(name, 0)
	reqs := [1]wire.Request{{Op: wire.OpReleaseNoAck, Name: name}}
	if err := c.mux.send(c, reqs[:], nil); err != nil {
		return fmt.Errorf("client: %s: %w", wire.OpReleaseNoAck, err)
	}
	return nil
}

// Holds reports whether this session holds the named lock according to
// the server — the owner check issued inside a critical section.
func (c *Conn) Holds(name string) (bool, error) {
	resp, err := c.do(wire.Request{Op: wire.OpHolds, Name: name})
	if err != nil {
		return false, err
	}
	return resp.Holds, nil
}

// Stats fetches the server's counter snapshot.
func (c *Conn) Stats() (wire.Stats, error) {
	resp, err := c.do(wire.Request{Op: wire.OpStats})
	if err != nil {
		return wire.Stats{}, err
	}
	if resp.Stats == nil {
		return wire.Stats{}, fmt.Errorf("client: stats: empty response")
	}
	return *resp.Stats, nil
}

// Ping probes liveness.
func (c *Conn) Ping() error {
	_, err := c.do(wire.Request{Op: wire.OpPing})
	return err
}

// Heartbeat renews every lease the session holds. On a server without
// leases it is an acknowledged no-op. It returns ErrFenced (wrapped) if
// any grant's lease had already expired — the session no longer holds
// that lock.
func (c *Conn) Heartbeat() error {
	resp, err := c.do(wire.Request{Op: wire.OpHeartbeat})
	if err != nil {
		return err
	}
	if resp.Fenced {
		return fmt.Errorf("client: heartbeat: %w", ErrFenced)
	}
	return nil
}

// AutoHeartbeat starts a background ticker that renews the session's
// leases every interval — set it under half the server's lease TTL.
// Safe to call on a server without leases (each beat is a cheap no-op);
// idempotent while a ticker is already running. The ticker stops itself
// when the session breaks, and Close stops it too.
func (c *Conn) AutoHeartbeat(every time.Duration) {
	c.hbMu.Lock()
	defer c.hbMu.Unlock()
	if c.hbStop != nil {
		return
	}
	stop := make(chan struct{})
	c.hbStop = stop
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if c.hbPaused.Load() {
					continue
				}
				// A fenced beat is survivable (only stale grants were
				// dropped); a transport error means the session is dead
				// and the ticker with it.
				if err := c.Heartbeat(); err != nil && !errors.Is(err, ErrFenced) {
					return
				}
			}
		}
	}()
}

// PauseHeartbeat suspends the auto-heartbeat ticker without stopping
// it: the session keeps its grants but stops renewing them, so on a
// lease-running server they expire after one TTL. This is how a crashed
// or stalled holder is simulated deliberately.
func (c *Conn) PauseHeartbeat() { c.hbPaused.Store(true) }

// ResumeHeartbeat re-enables a paused auto-heartbeat ticker.
func (c *Conn) ResumeHeartbeat() { c.hbPaused.Store(false) }

// Close ends the session; the server releases any locks it still holds
// and reaps any acquire still in flight. On a binary socket it retires
// just this stream (waiting for the server's ack) and leaves the shared
// socket up for its siblings; a JSON session's socket closes with it. Do
// not issue or pipeline requests concurrently with Close.
func (c *Conn) Close() error {
	c.hbMu.Lock()
	if c.hbStop != nil { // stop the auto-heartbeat ticker
		close(c.hbStop)
		c.hbStop = nil
	}
	c.hbMu.Unlock()
	return c.mux.closeStream(c)
}

// Batch executes len(reqs) requests as one coalesced write — one frame
// on a binary stream, one buffer of lines on a JSON one — and
// fills resps (which must be the same length) with the matched
// responses, in order. It returns only transport errors: per-request
// failures are left in each Response for the caller to inspect. A
// pipelined acquire+release pair through Batch costs one round trip.
func (c *Conn) Batch(reqs []wire.Request, resps []wire.Response) error {
	if len(reqs) != len(resps) {
		return fmt.Errorf("client: batch: %d requests but %d response slots", len(reqs), len(resps))
	}
	if len(reqs) == 0 {
		return nil
	}
	var ch chan result
	pooled := len(reqs) <= batchPoolCap
	if pooled {
		ch = batchPool.Get().(chan result)
	} else {
		ch = make(chan result, len(reqs))
	}
	if err := c.mux.send(c, reqs, ch); err != nil {
		if pooled {
			batchPool.Put(ch)
		}
		return fmt.Errorf("client: batch: %w", err)
	}
	c.mux.await(ch, len(reqs))
	var firstErr error
	for i := range resps {
		res := <-ch
		if res.err != nil && firstErr == nil {
			firstErr = res.err
		}
		resps[i] = res.resp
	}
	if pooled {
		batchPool.Put(ch) // fully drained: len(reqs) sends, len(reqs) receives
	}
	if firstErr != nil {
		return fmt.Errorf("client: batch: %w", firstErr)
	}
	return nil
}
