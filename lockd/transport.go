package lockd

// Inbound transport plumbing shared by both wire formats: connection
// dispatch on the first byte, the newline-JSON session loop, and the
// bounded line reader. The binary framed transport lives in binproto.go;
// both feed the same handle() in ownership.go.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"

	"anonmutex/lockd/wire"
)

// inbound is one parsed request line, or the error that ended the
// stream.
type inbound struct {
	req      wire.Request
	parseErr error
}

// errLineTooLong ends a session whose client sent an oversized request
// line; unlike a scanner's silent stop, the client hears why.
var errLineTooLong = errors.New("request line exceeds the server's line limit")

// readLine reads one newline-terminated line using the reader's own
// buffer when the line fits (the common case: no copy, no allocation)
// and accumulating into scratch otherwise, up to max bytes.
func readLine(br *bufio.Reader, scratch []byte, max int) (line, newScratch []byte, err error) {
	line, err = br.ReadSlice('\n')
	if err == nil {
		if len(line)-1 > max {
			// The limit binds even below bufio's own buffer size.
			return nil, scratch, errLineTooLong
		}
		return line[:len(line)-1], scratch, nil
	}
	if err != bufio.ErrBufferFull {
		return nil, scratch, err
	}
	scratch = append(scratch[:0], line...)
	for {
		if len(scratch) > max {
			return nil, scratch, errLineTooLong
		}
		line, err = br.ReadSlice('\n')
		scratch = append(scratch, line...)
		switch err {
		case nil:
			if len(scratch)-1 > max {
				return nil, scratch, errLineTooLong
			}
			return scratch[:len(scratch)-1], scratch, nil
		case bufio.ErrBufferFull:
			// keep accumulating
		default:
			return nil, scratch, err
		}
	}
}

// serveConn dispatches one connection to its wire format. The first
// byte decides: wire.MagicByte selects the length-prefixed multiplexed
// framing, anything else — in particular the '{' every JSON request
// line starts with — selects newline-JSON, so nc and a script work with
// zero configuration. Whatever ends the connection, the deferred
// cleanup here unregisters it; each protocol handler releases its own
// sessions' grants before returning.
func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
	}()
	in := &flushBeforeRead{conn: conn}
	br := bufio.NewReader(in)
	first, err := br.Peek(1)
	if err != nil {
		return // closed before the first byte; nothing was promised
	}
	if first[0] == wire.MagicByte {
		s.serveBinary(conn, br, in)
		return
	}
	s.serveJSON(conn, br)
}

// serveJSON runs one newline-JSON session: one logical session for the
// whole connection. A dedicated reader goroutine decodes request lines
// and feeds them to the processing loop, so the connection stays
// responsive while an acquire blocks: a cancel line aborts the
// in-flight acquire out of band (and still gets its response in order),
// and a connection drop cancels the whole session context, reaping any
// waiter the client abandoned. The processing loop batches responses:
// it flushes the write buffer only when the line queue is empty, so a
// pipelined burst costs one syscall, not one per response. Whatever ends
// the connection — client close, protocol error, cancel-by-Shutdown —
// the deferred cleanup releases every grant the session still holds.
func (s *Server) serveJSON(conn net.Conn, br *bufio.Reader) {
	sess := newSession()
	connCtx, connCancel := context.WithCancel(context.Background())
	s.liveStreams.Add(1)
	defer func() {
		connCancel()
		// Same single release codepath as the release op: with leases on,
		// a teardown that lost its grant's token arbitration to a TTL
		// expiry is a no-op, never a double release. Proxied grants are
		// retired at their owners the same way, by ending the forwarded
		// streams.
		s.closeRemotes(sess)
		for _, g := range sess.grants {
			s.releaseGrant(g)
		}
		s.liveStreams.Add(-1)
	}()

	maxLine := s.MaxLineBytes
	if maxLine <= 0 {
		maxLine = DefaultMaxLineBytes
	}

	lines := newOpQueue[inbound]()
	go func() {
		defer lines.close()
		// The reader owns the inbound half: when a read fails — client
		// disconnect, or conn.Close from Shutdown or a protocol error —
		// the session context is cancelled so a blocked acquire withdraws
		// instead of competing on behalf of a ghost. The queue's pushes
		// never block, so the reader is always back in Read and observes
		// the disconnect promptly no matter how many lines are pipelined
		// behind a blocked acquire. An acquire forwarded to another node
		// is out of the session context's reach, so it is aborted at the
		// owner explicitly.
		defer sess.abortRemote()
		defer connCancel()
		var scratch []byte
		for {
			var line []byte
			var err error
			line, scratch, err = readLine(br, scratch, maxLine)
			if err != nil {
				if err == errLineTooLong {
					lines.push(inbound{parseErr: err})
				}
				return // disconnect (or the too-long protocol error above)
			}
			var in inbound
			if err := wire.DecodeRequest(line, &in.req); err != nil {
				lines.push(inbound{parseErr: err})
				return
			}
			if in.req.Op == wire.OpCancel {
				sess.cancelAcquire(in.req.Name)
			}
			lines.push(in)
		}
	}()

	bw := bufio.NewWriter(conn)
	// flushPending pushes batched responses out just before an acquire
	// commits to blocking, so earlier responses in the same burst are not
	// held hostage by a contended lock.
	flushPending := func() { bw.Flush() }
	var respBuf []byte
	for {
		in, ok := lines.tryPop()
		if !ok {
			// No pipelined request is waiting: push the batched responses
			// out before parking on the queue.
			if bw.Flush() != nil {
				return
			}
			if in, ok = lines.pop(); !ok {
				return
			}
		}
		var resp wire.Response
		if in.parseErr != nil {
			// The stream is unusable; answer once and hang up.
			resp = wire.Response{Err: fmt.Sprintf("lockd: bad request: %v", in.parseErr)}
		} else if in.req.Op == wire.OpReleaseNoAck {
			// Fire-and-forget: perform the release, answer nothing.
			in.req.Op = wire.OpRelease
			s.handle(connCtx, sess, in.req, flushPending)
			continue
		} else {
			resp = s.handle(connCtx, sess, in.req, flushPending)
		}
		respBuf = wire.AppendResponse(respBuf[:0], &resp)
		bw.Write(respBuf)
		if err := bw.WriteByte('\n'); err != nil {
			return
		}
		if in.parseErr != nil {
			bw.Flush()
			return
		}
	}
}
