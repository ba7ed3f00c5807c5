package lockd

// Server side of the binary framed protocol: one reader goroutine per
// connection demultiplexes frames onto per-stream processing goroutines,
// each of which is a full logical session (own grants, own reaper
// semantics) running the same handle() the JSON path uses. Responses are
// batched per stream into frames and pushed through a shared writer
// whose flush coalesces across streams — the last writer in a convoy
// pays the syscall for everyone, the multi-stream analogue of the JSON
// path's flush-when-idle batching.

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

// muxWriter serializes frames from many stream goroutines onto one
// connection and coalesces flushes: a writer flushes only when no other
// writer is already waiting for the lock, so a convoy of frames costs
// one syscall — the last writer out pays it. The error is sticky; once a
// write fails every subsequent writeFrame reports it.
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
	// rframe is the reader's scratch response frame for the inline fast
	// path on inter-node connections; only the reader touches it.
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
	// inline fast path's license: no ordering hazard exists between a
	// response written by the reader and anything the stream goroutine
	// still owes.
	inflight atomic.Int32
}

// serveBinary runs one binary framed connection. The reader goroutine is
// the caller: it validates the magic, then demultiplexes frames, routing
// each op to its stream's queue (spawning the stream's processing
// goroutine on first use) and applying cancels out of band exactly as
// the JSON reader does — so a cancel aborts its stream's blocked acquire
// without waiting behind it. Any protocol error — bad preamble, oversized
// or malformed frame, unknown opcode, the reserved stream 0 — is
// answered once with an error response on stream 0 and ends the
// connection, mirroring the JSON path's oversized-line contract. When
// the connection ends, every stream's queue is closed and every stream's
// grants are released before the socket is torn down.
func (s *Server) serveBinary(conn net.Conn, br *bufio.Reader) {
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
		// Inline fast path, inter-node connections only: when the stream
		// is idle (nothing queued, nothing mid-handle, nothing batched
		// unflushed), the reader executes the frame's non-blocking ops
		// itself and answers in one frame, sparing the handoff to the
		// stream goroutine — this read is on the critical path of some
		// client's proxied acquire at another node. The moment an op
		// would block (a contended acquire), or on end_stream, the rest
		// of the frame falls back to the queue and ordering is preserved:
		// the reader's partial frame goes to the shared writer before
		// anything is pushed.
		inline := bc.fromProxy && st.inflight.Load() == 0
		if inline {
			bc.rframe = wire.BeginFrame(bc.rframe[:0], stream)
		}
		for len(ops) > 0 {
			if ops, err = wire.DecodeRequestBin(ops, &req, names); err != nil {
				bc.connError(fmt.Sprintf("lockd: bad request: %v", err))
				return
			}
			if req.Op == wire.OpCancel {
				st.sess.cancelAcquire(req.Name)
			}
			if inline {
				if handled := bc.handleInline(st, &req); handled {
					continue
				}
				inline = false
				if len(bc.rframe) > wire.FrameHeaderLen {
					if bc.w.writeFrame(wire.EndFrame(bc.rframe, 0)) != nil {
						bc.conn.Close()
						return
					}
				}
			}
			st.inflight.Add(1)
			st.q.push(req)
		}
		if inline && len(bc.rframe) > wire.FrameHeaderLen {
			if bc.w.writeFrame(wire.EndFrame(bc.rframe, 0)) != nil {
				bc.conn.Close()
				return
			}
		}
	}
}

// handleInline executes one op from the reader when the stream is
// idle, appending any response to the reader's frame. It reports false
// — leaving all state untouched beyond one uncontended probe — when
// the op must go to the stream goroutine instead: a contended acquire
// (whose blocking wait the reader must never perform, or cancels and
// every other stream on the connection would stall behind it) or an
// end_stream (whose retirement dance belongs to the goroutine being
// retired).
func (bc *binConn) handleInline(st *binStream, req *wire.Request) bool {
	switch req.Op {
	case wire.OpEndStream:
		return false
	case wire.OpAcquire:
		resp, done := bc.srv.handleAcquire(bc.ctx, st.sess, *req, nil, false)
		if !done {
			return false
		}
		bc.rframe = wire.AppendResponseBin(bc.rframe, &resp)
		return true
	case wire.OpReleaseNoAck:
		nreq := *req
		nreq.Op = wire.OpRelease
		bc.srv.handle(bc.ctx, st.sess, nreq, nil)
		return true
	default:
		resp := bc.srv.handle(bc.ctx, st.sess, *req, nil)
		bc.rframe = wire.AppendResponseBin(bc.rframe, &resp)
		return true
	}
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

// streamLoop is one stream's processing goroutine: the binary
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
	// writer, keeping the reader's inline fast path (which keys on
	// inflight reaching zero) ordered behind everything this goroutine
	// still owes.
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
			// Retire the stream: ack, then forget it so the id can be
			// reused; the deferred cleanup releases its grants.
			frame = wire.AppendResponseBin(frame, &wire.Response{OK: true})
			batched++
			flush()
			bc.mu.Lock()
			if bc.streams[st.id] == st {
				delete(bc.streams, st.id)
			}
			bc.mu.Unlock()
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
