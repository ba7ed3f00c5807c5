package lockd

// Server side of the binary framed protocol. One execution model serves
// client and inter-node connections alike: the connection's frame reader
// executes every op that cannot block (handleInline says which those
// are) through the same handle() the JSON path uses, and appends the
// answers to a shared buffered writer that is flushed when the reader's
// input runs dry (flushBeforeRead) — so the ops that arrived in one read
// are answered in one write. Each stream is a full logical session (own
// grants, own reaper semantics) with a processing goroutine of its own
// that takes over only for an op that can block and whatever is
// pipelined behind it; those goroutines flush for themselves, the last
// writer in a convoy paying the syscall for everyone, because the reader
// may be parked in Read when a blocked acquire is finally granted.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"anonmutex/lockd/wire"
)

// binResponseFlushBytes caps how much encoded response a stream batches
// into one frame before pushing it to the shared writer mid-burst.
const binResponseFlushBytes = 16 << 10

// muxWriter serializes frames from the frame reader and the stream
// goroutines onto one connection. Two ways in, one way out: the reader
// appends (appendFrame) and leaves the flush to its own next socket read
// (flushPending); a stream goroutine writes (writeFrame) and flushes
// unless another stream goroutine is already waiting for the lock, so a
// convoy of frames costs one syscall — the last writer out pays it.
// Everything is ordered by mu: a frame the reader appended precedes
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

// appendFrame buffers one of the reader's frames without flushing it.
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

// flushBeforeRead is the io.Reader between a connection and its frame
// reader's bufio.Reader. bufio calls Read only when its buffer is empty
// — the input has run dry, mid-frame included — so flushing here is what
// makes the reader's answers cost one write per read instead of one per
// op, and nothing the reader appended is ever held across a blocking
// read. w stays nil on a JSON connection. A failed flush has no caller
// to report to: it closes the connection, which ends the frame reader
// and runs its teardown exactly as a failed writeFrame does.
type flushBeforeRead struct {
	conn net.Conn
	w    *muxWriter
}

func (r *flushBeforeRead) Read(p []byte) (int, error) {
	if r.w != nil {
		if err := r.w.flushPending(); err != nil {
			r.conn.Close()
			return 0, err
		}
	}
	return r.conn.Read(p)
}

// binConn is one binary connection: the demultiplexer state shared by
// its reader and its stream goroutines.
type binConn struct {
	srv    *Server
	conn   net.Conn
	ctx    context.Context
	cancel context.CancelFunc
	// fromProxy marks an inter-node connection (wire.HelloForwarded in
	// the preamble): its ops were already forwarded once, so its sessions
	// never forward again — the proxy hop cap.
	fromProxy bool
	w         muxWriter
	// rframe is the reader's scratch response frame for the ops it
	// executes itself; only the reader touches it.
	rframe []byte

	mu      sync.Mutex
	streams map[uint32]*binStream

	wg sync.WaitGroup
}

// binStream is one logical session multiplexed on a binary connection.
type binStream struct {
	id   uint32
	sess *session
	q    *opQueue[wire.Request]
	// inflight counts ops handed to the stream goroutine whose responses
	// have not yet reached the shared writer (queued, mid-handle, or
	// batched unflushed). The reader increments before each push; the
	// stream goroutine decrements as responses are flushed. Zero is the
	// reader's license to execute the stream's next op itself: the stream
	// goroutine is parked on an empty queue, so the session is the
	// reader's to touch and no ordering hazard exists between a response
	// the reader appends and anything the stream goroutine still owes.
	inflight atomic.Int32
}

// serveBinary runs one binary framed connection, client or inter-node.
// The reader goroutine is the caller: it validates the magic, then reads
// frames and executes each op itself while the op's stream has nothing
// in flight and the op cannot block (handleInline); from the first op
// that can, the rest of the frame — and every later op of that stream
// until its goroutine has answered them all — goes to the stream's
// queue, behind the reader's partial frame, so answers keep their order.
// Cancels are applied out of band exactly as the JSON reader does, so a
// cancel aborts its stream's blocked acquire without waiting behind it.
// Any protocol error — bad preamble, oversized or malformed frame,
// unknown opcode, the reserved stream 0 — is answered once with an error
// response on stream 0 and ends the connection, mirroring the JSON
// path's oversized-line contract. When the connection ends, every
// stream's queue is closed and every stream's grants are released
// before the socket is torn down.
func (s *Server) serveBinary(conn net.Conn, br *bufio.Reader, in *flushBeforeRead) {
	var preamble [wire.PreambleLen]byte
	if _, err := io.ReadFull(br, preamble[:]); err != nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	bc := &binConn{
		srv:     s,
		conn:    conn,
		ctx:     ctx,
		cancel:  cancel,
		streams: make(map[uint32]*binStream),
	}
	bc.w.bw = bufio.NewWriter(conn)
	in.w = &bc.w
	hello, err := wire.ParsePreamble(preamble)
	if err != nil {
		bc.connError(err.Error())
		return
	}
	bc.fromProxy = hello&wire.HelloForwarded != 0
	defer func() {
		// Cancel first so any stream blocked in a slow-path acquire
		// withdraws instead of competing on behalf of a dead connection,
		// then let every stream drain and release its grants. Streams
		// blocked in a forwarded acquire are aborted at the owner
		// (outside bc.mu: the abort is an inter-node write).
		bc.cancel()
		bc.mu.Lock()
		streams := make([]*binStream, 0, len(bc.streams))
		for _, st := range bc.streams {
			streams = append(streams, st)
		}
		bc.mu.Unlock()
		for _, st := range streams {
			st.q.close()
			st.sess.abortRemote()
		}
		bc.wg.Wait()
	}()

	maxFrame := s.MaxFrameBytes
	if maxFrame <= 0 {
		maxFrame = wire.DefaultMaxFrameBytes
	}
	names := wire.NewNameTable() // per-connection lock-name interning (byte-bounded)
	var buf []byte
	var req wire.Request
	for {
		var stream uint32
		var ops []byte
		var err error
		stream, ops, buf, err = wire.ReadFrame(br, buf, maxFrame)
		if err != nil {
			if errors.Is(err, wire.ErrFrameTooBig) || errors.Is(err, wire.ErrShortFrame) {
				bc.connError(err.Error())
			}
			return // disconnect (or the protocol error answered above)
		}
		if stream == 0 {
			bc.connError("lockd: stream 0 is reserved")
			return
		}
		st := bc.stream(stream)
		inline := st.inflight.Load() == 0
		bc.rframe = wire.BeginFrame(bc.rframe[:0], stream)
		for len(ops) > 0 {
			if ops, err = wire.DecodeRequestBin(ops, &req, names); err != nil {
				bc.connError(fmt.Sprintf("lockd: bad request: %v", err))
				return
			}
			if req.Op == wire.OpCancel {
				st.sess.cancelAcquire(req.Name)
			}
			if inline {
				if bc.handleInline(st, &req) {
					continue
				}
				inline = false
				if !bc.appendInline() {
					return
				}
			}
			st.inflight.Add(1)
			st.q.push(req)
		}
		if inline && !bc.appendInline() {
			return
		}
	}
}

// handleInline executes one op on the frame reader, appending any
// response to the reader's frame. It reports false — leaving all state
// untouched beyond one uncontended probe — when the op can block and
// must go to the stream goroutine instead; were the reader to wait,
// cancels and every other stream of the connection would wait behind it.
// This is the one statement of "can block":
//
//   - end_stream: not a wait, but the retirement dance belongs to the
//     goroutine being retired;
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
func (bc *binConn) handleInline(st *binStream, req *wire.Request) bool {
	sess := st.sess
	grants := req.Op == wire.OpAcquire || req.Op == wire.OpTryAcquire
	switch {
	case req.Op == wire.OpEndStream:
		return false
	case len(sess.remotes) > 0 || len(sess.remoteGrants) > 0:
		return false
	case bc.srv.syncCommits && (grants || req.Op == wire.OpHeartbeat):
		return false
	case grants:
		resp, done := bc.srv.handleAcquire(bc.ctx, sess, *req, nil, false)
		if !done {
			return false
		}
		bc.rframe = wire.AppendResponseBin(bc.rframe, &resp)
	case req.Op == wire.OpReleaseNoAck:
		nreq := *req
		nreq.Op = wire.OpRelease
		bc.srv.handle(bc.ctx, sess, nreq, nil)
	default:
		resp := bc.srv.handle(bc.ctx, sess, *req, nil)
		bc.rframe = wire.AppendResponseBin(bc.rframe, &resp)
	}
	return true
}

// appendInline hands the reader's frame, if it holds any response, to
// the shared writer unflushed — the reader's next socket read flushes
// it — and reports false, after closing the connection, when the writer
// has failed.
func (bc *binConn) appendInline() bool {
	if len(bc.rframe) == wire.FrameHeaderLen {
		return true
	}
	if bc.w.appendFrame(wire.EndFrame(bc.rframe, 0)) != nil {
		bc.conn.Close()
		return false
	}
	return true
}

// connError answers a connection-fatal protocol error once, on the
// reserved stream 0, before the connection closes.
func (bc *binConn) connError(msg string) {
	frame := wire.BeginFrame(make([]byte, 0, 64+len(msg)), 0)
	frame = wire.AppendResponseBin(frame, &wire.Response{Err: msg})
	bc.w.writeFrame(wire.EndFrame(frame, 0))
}

// stream returns the processing stream for id, spawning it on first use.
func (bc *binConn) stream(id uint32) *binStream {
	bc.mu.Lock()
	st := bc.streams[id]
	if st == nil {
		st = &binStream{
			id:   id,
			sess: newSession(),
			q:    newOpQueue[wire.Request](),
		}
		st.sess.noForward = bc.fromProxy
		bc.streams[id] = st
		bc.srv.liveStreams.Add(1)
		bc.wg.Add(1)
		go bc.streamLoop(st)
	}
	bc.mu.Unlock()
	return st
}

// streamLoop is one stream's processing goroutine. It sees only what the
// frame reader would not run itself — an op that can block, and whatever
// arrives for the stream until that op and everything queued behind it
// are answered — and is otherwise parked on its queue. It is the binary
// counterpart of the JSON processing loop, with the same batching shape
// — responses accumulate into a frame that is pushed when the stream's
// queue runs dry, when it grows past binResponseFlushBytes, or right
// before an acquire commits to blocking (the preBlock hook), so a
// blocked stream never holds hostage responses it already owes. Each
// stream blocks independently: a contended acquire on one stream never
// delays its siblings on the same connection.
func (bc *binConn) streamLoop(st *binStream) {
	defer func() {
		// Teardown routes through the same releaseGrant the end_stream ack
		// and the release op use: with leases on, exactly one of teardown
		// and TTL expiry wins each grant's token arbitration, so a stream
		// dying mid-expiry can never double-release. Proxied grants are
		// retired at their owners the same way, by ending the forwarded
		// streams.
		bc.srv.closeRemotes(st.sess)
		for _, g := range st.sess.grants {
			bc.srv.releaseGrant(g)
		}
		bc.srv.liveStreams.Add(-1)
		bc.wg.Done()
	}()
	frame := wire.BeginFrame(make([]byte, 0, 512), st.id)
	// batched counts the ops whose responses sit in frame; their
	// inflight debt is settled only once the responses reach the shared
	// writer, keeping the reader (which runs the stream's next op itself
	// once inflight reaches zero) ordered behind everything this
	// goroutine still owes.
	batched := 0
	// flush pushes the batched responses, reporting false — after closing
	// the connection so every stream unwinds — when the write failed.
	flush := func() bool {
		if len(frame) == wire.FrameHeaderLen {
			return true
		}
		err := bc.w.writeFrame(wire.EndFrame(frame, 0))
		frame = wire.BeginFrame(frame[:0], st.id)
		if err != nil {
			bc.conn.Close()
			return false
		}
		st.inflight.Add(int32(-batched))
		batched = 0
		return true
	}
	preBlock := func() { flush() }
	for {
		req, ok := st.q.tryPop()
		if !ok {
			// No pipelined op is waiting: push the batched responses out
			// before parking on the queue.
			if !flush() {
				return
			}
			if req, ok = st.q.pop(); !ok {
				return
			}
		}
		if req.Op == wire.OpEndStream {
			// Retire the stream: forget it so the id can be reused, then
			// ack; the deferred cleanup releases its grants. The ack's
			// inflight debt is never settled: a retired stream must not
			// look idle to the reader, or an op pipelined behind the
			// end_stream would run on a session whose grants were already
			// swept.
			bc.mu.Lock()
			if bc.streams[st.id] == st {
				delete(bc.streams, st.id)
			}
			bc.mu.Unlock()
			frame = wire.AppendResponseBin(frame, &wire.Response{OK: true})
			flush()
			return
		}
		if req.Op == wire.OpReleaseNoAck {
			// Fire-and-forget: the sender registered no response slot, so
			// answering would desync its FIFO. Perform the release and
			// move on without touching the response frame.
			req.Op = wire.OpRelease
			bc.srv.handle(bc.ctx, st.sess, req, preBlock)
			st.inflight.Add(-1)
			continue
		}
		resp := bc.srv.handle(bc.ctx, st.sess, req, preBlock)
		frame = wire.AppendResponseBin(frame, &resp)
		batched++
		if len(frame) >= binResponseFlushBytes {
			if !flush() {
				return
			}
		}
	}
}
