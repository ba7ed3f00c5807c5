package lockd

// The one connection loop. Whichever wire format a connection speaks, its
// reader (readLoop) executes every op that cannot block and a stream's
// goroutine (streamLoop) exists only while it owes an answer to one that
// can; both run ops through handle() in ownership.go. The formats differ
// in a framing, picked from the connection's first byte: the binary one
// is in binproto.go, the newline-JSON one at the end of this file.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"anonmutex/lockd/wire"
)

// framing is what the two wire formats differ in: how the next batch of
// ops for a stream is read and how a batch of answers is encoded. A
// connection-fatal protocol error is one more answer, on stream 0.
type framing interface {
	// readBatch blocks for the next batch of ops — a frame, or a line —
	// and names the stream it is for. Any error but a protocolError is a
	// disconnect.
	readBatch() (stream uint32, err error)
	// decodeOp decodes the batch's next op into req, overwriting every
	// field; ok is false once the batch is spent. An error is a
	// malformed op, fatal to the connection.
	decodeOp(req *wire.Request) (ok bool, err error)
	// appendResponse encodes resp onto dst, a batch of answers for one
	// stream that is ready for the wire after every call; an empty dst
	// begins the batch.
	appendResponse(dst []byte, stream uint32, resp wire.Response) []byte
}

// protocolError is a connection-fatal fault in what the peer sent. Unlike
// a disconnect it is answered: once, behind every answer the connection
// already owes, and then the connection closes.
type protocolError string

func (e protocolError) Error() string { return string(e) }

// responseFlushBytes caps how much encoded response a stream goroutine
// batches before pushing it to the shared writer mid-burst.
const responseFlushBytes = 16 << 10

// muxWriter serializes answers from the reader and the stream goroutines
// onto one connection. Two ways in, one way out: the reader appends
// (appendFrame) and leaves the flush to its own next socket read
// (flushPending); a stream goroutine writes (writeFrame) and flushes —
// the reader may be parked in Read when a blocked acquire is granted —
// unless another stream goroutine is already waiting for the lock, so a
// convoy of frames costs one syscall, the last writer out paying it.
// Everything is ordered by mu: a batch the reader appended precedes
// whatever a stream goroutine writes after it. The error is sticky; once
// a write fails every later call reports it.
type muxWriter struct {
	waiters atomic.Int32
	mu      sync.Mutex
	bw      *bufio.Writer
	err     error
}

func (w *muxWriter) writeFrame(frame []byte) error {
	w.waiters.Add(1)
	w.mu.Lock()
	w.waiters.Add(-1)
	if w.err == nil {
		_, w.err = w.bw.Write(frame)
	}
	if w.err == nil && w.waiters.Load() == 0 {
		w.err = w.bw.Flush()
	}
	err := w.err
	w.mu.Unlock()
	return err
}

// appendFrame buffers one of the reader's batches without flushing it.
func (w *muxWriter) appendFrame(frame []byte) error {
	w.mu.Lock()
	if w.err == nil {
		_, w.err = w.bw.Write(frame)
	}
	err := w.err
	w.mu.Unlock()
	return err
}

// flushPending pushes out whatever is buffered.
func (w *muxWriter) flushPending() error {
	w.mu.Lock()
	if w.err == nil && w.bw.Buffered() > 0 {
		w.err = w.bw.Flush()
	}
	err := w.err
	w.mu.Unlock()
	return err
}

// flushBeforeRead is the io.Reader between a connection and its reader's
// bufio.Reader. bufio calls Read only when its buffer is empty — the
// input has run dry, mid-batch included — so flushing here is what makes
// the reader's answers cost one write per read instead of one per op,
// and nothing the reader appended is ever held across a blocking read. A
// failed flush has no caller to report to: it closes the connection,
// which ends the reader and runs its teardown exactly as a failed
// writeFrame does.
type flushBeforeRead struct {
	conn net.Conn
	w    *muxWriter
}

func (r *flushBeforeRead) Read(p []byte) (int, error) {
	if err := r.w.flushPending(); err != nil {
		r.conn.Close()
		return 0, err
	}
	return r.conn.Read(p)
}

// conn is one connection: the state shared by its reader and its stream
// goroutines.
type conn struct {
	srv *Server
	nc  net.Conn
	ctx context.Context
	f   framing
	// mux marks the multiplexed framing, where end_stream retires a
	// stream; on a JSON connection the word is as unknown as any other.
	mux bool
	// fromProxy marks an inter-node connection (wire.HelloForwarded in
	// the preamble): its ops were already forwarded once, so its sessions
	// never forward again — the proxy hop cap.
	fromProxy bool
	w         muxWriter
	// rframe is the reader's batch of answers to the ops it executes
	// itself; only the reader touches it.
	rframe []byte

	mu      sync.Mutex
	streams map[uint32]*stream

	wg sync.WaitGroup // live stream goroutines
}

// stream is one logical session on a connection: each stream of a binary
// connection, the whole of a JSON one.
type stream struct {
	id   uint32
	sess *session
	// q hands the reader's ops to the stream's goroutine and counts what
	// that goroutine still owes. While that is nothing there is no
	// goroutine, and sess is the reader's to touch.
	q opQueue
	// frame is the goroutine's batch of encoded answers, and batched the
	// ops it answers (or that answer nothing): both empty whenever there
	// is no goroutine, frame's array kept for the next one's use.
	frame   []byte
	batched int
}

// serveConn serves one connection. The first byte decides the framing:
// wire.MagicByte selects the length-prefixed multiplexed one, anything
// else — in particular the '{' every JSON request line starts with —
// selects newline-JSON, so nc and a script work with zero configuration.
func (s *Server) serveConn(nc net.Conn) {
	defer func() {
		nc.Close()
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		s.wg.Done()
	}()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := &conn{srv: s, nc: nc, ctx: ctx, streams: make(map[uint32]*stream)}
	c.w.bw = bufio.NewWriter(nc)
	br := bufio.NewReader(&flushBeforeRead{conn: nc, w: &c.w})
	first, err := br.Peek(1)
	if err != nil {
		return // closed before the first byte; nothing was promised
	}
	if first[0] == wire.MagicByte {
		err = c.speakBinary(br)
	} else {
		c.speakJSON(br)
	}
	if err == nil {
		err = c.readLoop()
	}
	// Whatever ended the reader — client close, protocol error, a failed
	// write, Shutdown — cancel first, so any stream blocked in a slow-path
	// acquire withdraws instead of competing on behalf of a dead
	// connection; one blocked in a forwarded acquire is out of the
	// context's reach and is aborted at the owner. Then every stream
	// goroutine settles what it owes and exits, and what is left is the
	// reader's alone: a protocol error to answer, and the grants of the
	// streams nobody ended.
	cancel()
	c.mu.Lock()
	for _, st := range c.streams {
		st.sess.abortRemote()
	}
	c.mu.Unlock()
	c.wg.Wait()
	var fault protocolError
	if errors.As(err, &fault) {
		c.w.writeFrame(c.f.appendResponse(nil, 0, wire.Response{Err: string(fault)}))
	}
	for _, st := range c.streams {
		c.retire(st)
	}
}

// readLoop is the connection's reader. It executes each op itself while
// the op's stream owes nothing and the op cannot block (handleInline),
// and its answers leave when its input runs dry (flushBeforeRead): the
// ops that arrived in one read are answered in one write. From the first
// op that can block, the rest of the batch — and every later op of that
// stream until its goroutine has answered them all — goes to the stream's
// queue, behind the reader's partial batch of answers, so answers keep
// their order; the push that finds the stream owing nothing starts the
// goroutine. A cancel is applied out of band the moment it is read, so it
// aborts its stream's blocked acquire without waiting behind it, and is
// still acknowledged in order. It returns what ended it: a protocolError,
// or the read or write error of a connection that is gone.
func (c *conn) readLoop() error {
	var req wire.Request
	for {
		id, err := c.f.readBatch()
		if err != nil {
			return err
		}
		st := c.stream(id)
		inline := st.q.idle()
		for {
			ok, err := c.f.decodeOp(&req)
			if err != nil {
				return protocolError(fmt.Sprintf("lockd: bad request: %v", err))
			}
			if !ok {
				break
			}
			if req.Op == wire.OpCancel {
				st.sess.cancelAcquire(req.Name)
			}
			if inline && c.handleInline(st, &req) {
				continue
			}
			inline = false
			if err := c.appendInline(); err != nil {
				return err
			}
			if st.q.push(req) {
				c.wg.Add(1)
				go c.streamLoop(st)
			}
		}
		if err := c.appendInline(); err != nil {
			return err
		}
	}
}

// handleInline executes one op on the reader, appending any response to
// the reader's batch. It reports false — leaving all state untouched
// beyond one uncontended probe — when the op can block and must go to
// the stream's goroutine instead; were the reader to wait, cancels and
// every other stream of the connection would wait behind it. This is the
// one statement of "can block":
//
//   - end_stream: not a wait, but retirement leaves the stream owing for
//     good, which only an op that went through its queue can;
//   - any op of a session that holds forwarded streams or proxied grants
//     (proxy mode): its release, holds and heartbeat are inter-node
//     writes and round trips;
//   - an acquire or try of a key another node owns, when this node would
//     forward it — handleAcquire(block=false) stops before the forward;
//   - a contended acquire — handleAcquire(block=false) stops after one
//     AcquireFast probe;
//   - acquire, try and heartbeat when the journal fsyncs before it
//     acknowledges (Server.syncCommits): a grant or a renewal then waits
//     for the disk, and waiters on separate goroutines are what lets the
//     streams of one socket share a group commit.
func (c *conn) handleInline(st *stream, req *wire.Request) bool {
	sess := st.sess
	grants := req.Op == wire.OpAcquire || req.Op == wire.OpTryAcquire
	switch {
	case c.mux && req.Op == wire.OpEndStream:
		return false
	case len(sess.remotes) > 0 || len(sess.remoteGrants) > 0:
		return false
	case c.srv.syncCommits && (grants || req.Op == wire.OpHeartbeat):
		return false
	case grants:
		resp, done := c.srv.handleAcquire(c.ctx, sess, *req, nil, false)
		if !done {
			return false
		}
		c.rframe = c.f.appendResponse(c.rframe, st.id, resp)
	default:
		c.rframe = c.exec(st, req, nil, c.rframe)
	}
	return true
}

// exec runs one op through handle() and appends its answer to dst, a
// batch for the op's stream. A release_noack answers nothing: the sender
// registered no response slot, so an answer would desync its FIFO.
func (c *conn) exec(st *stream, req *wire.Request, preBlock func(), dst []byte) []byte {
	if req.Op == wire.OpReleaseNoAck {
		release := *req
		release.Op = wire.OpRelease
		c.srv.handle(c.ctx, st.sess, release, preBlock)
		return dst
	}
	return c.f.appendResponse(dst, st.id, c.srv.handle(c.ctx, st.sess, *req, preBlock))
}

// appendInline hands the reader's batch, if it holds any answer, to the
// shared writer unflushed — the reader's next socket read flushes it.
// When the writer has failed it closes the connection and reports why.
func (c *conn) appendInline() error {
	if len(c.rframe) == 0 {
		return nil
	}
	err := c.w.appendFrame(c.rframe)
	c.rframe = c.rframe[:0]
	if err != nil {
		c.nc.Close()
	}
	return err
}

// stream returns the stream for id, opening it on first use.
func (c *conn) stream(id uint32) *stream {
	c.mu.Lock()
	st := c.streams[id]
	if st == nil {
		st = &stream{id: id, sess: newSession()}
		st.sess.noForward = c.fromProxy
		c.streams[id] = st
		c.srv.liveStreams.Add(1)
	}
	c.mu.Unlock()
	return st
}

// retire ends a stream's session, releasing every grant it still holds.
// Whoever ends the stream calls it, once: its end_stream, on its own
// goroutine, or the connection's teardown when no goroutine is left. The
// releases route through the same releaseGrant the release op uses: with
// leases on, exactly one of retirement and TTL expiry wins each grant's
// token arbitration, so a stream dying mid-expiry can never
// double-release. Proxied grants are retired at their owners the same
// way, by ending the forwarded streams.
func (c *conn) retire(st *stream) {
	c.srv.closeRemotes(st.sess)
	for name, g := range st.sess.grants {
		c.srv.releaseGrant(name, g)
	}
	c.srv.liveStreams.Add(-1)
}

// streamLoop is a stream's goroutine: started by the reader's push of an
// op that can block onto a stream that owed nothing, gone once it has
// answered that op and everything the reader queued behind it meanwhile.
// Answers accumulate into a batch that is pushed when the queue runs dry,
// when it grows past responseFlushBytes, or right before an acquire
// commits to blocking (the preBlock hook), so a blocked stream never
// holds hostage answers it already owes. Each stream blocks
// independently: a contended acquire on one never delays its siblings on
// the connection.
func (c *conn) streamLoop(st *stream) {
	defer c.wg.Done()
	preBlock := func() { c.settle(st) } // mid-op the debt cannot reach zero: the op itself is unsettled
	for {
		req, ok := st.q.tryPop()
		if !ok {
			// Nothing more is queued. If settling leaves a debt, the
			// reader has pushed since, and the queue holds it.
			if c.settle(st) {
				return
			}
			continue
		}
		if c.mux && req.Op == wire.OpEndStream {
			// Forget the stream, so its id can be reused, and release its
			// grants before the ack leaves, so whoever reads the ack finds
			// them released. The ack's own debt is never settled: a
			// retired stream must not look idle to the reader, or an op
			// pipelined behind the end_stream would run on a session
			// whose grants were already swept.
			c.mu.Lock()
			delete(c.streams, st.id)
			c.mu.Unlock()
			c.retire(st)
			st.frame = c.f.appendResponse(st.frame, st.id, wire.Response{OK: true})
			c.settle(st)
			return
		}
		st.frame = c.exec(st, &req, preBlock, st.frame)
		st.batched++
		if len(st.frame) >= responseFlushBytes && c.settle(st) {
			return
		}
	}
}

// settle pushes a stream goroutine's batch out and only then lowers the
// stream's debt by the ops it answers: the reader, which answers for the
// stream again once the debt is zero, stays ordered behind everything
// the goroutine owed. It reports whether the goroutine is done: it owes
// nothing more, or the write failed and the connection is closed so that
// every stream unwinds.
func (c *conn) settle(st *stream) (done bool) {
	if len(st.frame) > 0 {
		err := c.w.writeFrame(st.frame)
		st.frame = st.frame[:0]
		if err != nil {
			c.nc.Close()
			return true
		}
	}
	n := st.batched
	st.batched = 0
	return st.q.settle(n)
}

// The newline-JSON framing: one request per line, one response line per
// request, and the whole connection one logical session — one stream —
// so that nc, a script or a debugger can talk to a node.
type jsonFraming struct {
	br      *bufio.Reader
	max     int
	scratch []byte
	line    []byte // the batch: one line, nil once decodeOp has handed it out
}

func (c *conn) speakJSON(br *bufio.Reader) {
	max := c.srv.MaxLineBytes
	if max <= 0 {
		max = DefaultMaxLineBytes
	}
	c.f = &jsonFraming{br: br, max: max}
}

// readBatch reads one newline-terminated line, using the reader's own
// buffer when the line fits (the common case: no copy, no allocation)
// and accumulating into scratch otherwise, up to max bytes.
func (f *jsonFraming) readBatch() (uint32, error) {
	f.scratch = f.scratch[:0]
	for {
		part, err := f.br.ReadSlice('\n')
		if err != nil && err != bufio.ErrBufferFull {
			return 0, err
		}
		f.line = part
		if len(f.scratch) > 0 || err != nil { // the line outgrew bufio's buffer
			f.scratch = append(f.scratch, part...)
			f.line = f.scratch
		}
		if err == nil {
			f.line = f.line[:len(f.line)-1]
		}
		if len(f.line) > f.max {
			return 0, errLineTooLong // the limit binds even below bufio's own buffer size
		}
		if err == nil {
			return 1, nil // the connection's one stream; f.line is not nil, if empty
		}
	}
}

func (f *jsonFraming) decodeOp(req *wire.Request) (bool, error) {
	line := f.line
	f.line = nil
	if line == nil {
		return false, nil
	}
	return true, wire.DecodeRequest(line, req)
}

func (f *jsonFraming) appendResponse(dst []byte, _ uint32, resp wire.Response) []byte {
	return append(wire.AppendResponse(dst, &resp), '\n')
}

// errLineTooLong ends a connection whose client sent an oversized request
// line; unlike a scanner's silent stop, the client hears why.
var errLineTooLong = protocolError("lockd: bad request: request line exceeds the server's line limit")
