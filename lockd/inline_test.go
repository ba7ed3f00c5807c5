package lockd_test

// The binary connection's execution model, held to counts rather than
// timings: the frame reader executes what cannot block and its answers
// leave in one write per read; an op that can block goes to its stream's
// goroutine without the reader ever waiting; and a flush that fails with
// no caller to tell still ends the connection cleanly. Everything runs
// over net.Pipe, where one client Write is one server Read.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"anonmutex/internal/lockmgr"
	"anonmutex/lockd"
	"anonmutex/lockd/client"
	"anonmutex/lockd/wire"
)

// dial opens a connection on the pipe listener (bench_test.go) and
// returns the client's half and the server's, which the server sees
// wrapped in a meteredConn.
func (l *pipeListener) dial(t *testing.T) (net.Conn, *meteredConn) {
	t.Helper()
	c, s := net.Pipe()
	m := &meteredConn{Conn: s}
	m.budget.Store(-1)
	select {
	case l.conns <- m:
	case <-l.done:
		t.Fatal("dial on a closed pipeListener")
	}
	t.Cleanup(func() { c.Close() })
	return c, m
}

// meteredConn counts the server's Write calls and, once budget is set
// non-negative, lets only that many more bytes through before failing.
type meteredConn struct {
	net.Conn
	writes atomic.Int64
	budget atomic.Int64
}

var errWriteBudget = errors.New("meteredConn: write budget spent")

func (c *meteredConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	left := c.budget.Load()
	if left < 0 {
		return c.Conn.Write(p)
	}
	if int64(len(p)) <= left {
		c.budget.Add(-int64(len(p)))
		return c.Conn.Write(p)
	}
	c.budget.Store(0)
	n, _ := c.Conn.Write(p[:left])
	return n, errWriteBudget
}

// startPipeServer runs a server on a pipeListener and shuts it down —
// which waits for every connection's goroutines — with the test.
func startPipeServer(t *testing.T) (*lockmgr.Manager, *pipeListener) {
	t.Helper()
	mgr, err := lockmgr.New(lockmgr.Config{HandlesPerLock: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := lockd.NewServer(mgr)
	ln := newPipeListener()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("Serve: %v", err)
		}
		mgr.Close()
	})
	return mgr, ln
}

// answer is one response frame as the raw client read it.
type answer struct {
	stream uint32
	resps  []wire.Response
}

// rawClient speaks frames by hand: the tests decide what shares a Write.
// A goroutine of its own keeps reading, because on a pipe a server Write
// waits for the reader.
type rawClient struct {
	t       *testing.T
	conn    net.Conn
	answers chan answer
}

func newRawClient(t *testing.T, conn net.Conn) *rawClient {
	t.Helper()
	rc := &rawClient{t: t, conn: conn, answers: make(chan answer, 256)} // more frames than any test here leaves unread
	preamble := wire.Preamble(0)
	if _, err := conn.Write(preamble[:]); err != nil {
		t.Fatal(err)
	}
	go func() {
		defer close(rc.answers)
		br := bufio.NewReader(conn)
		var buf []byte
		for {
			stream, ops, nbuf, err := wire.ReadFrame(br, buf, 0)
			if err != nil {
				return
			}
			buf = nbuf
			a := answer{stream: stream}
			for len(ops) > 0 {
				var resp wire.Response
				if ops, err = wire.DecodeResponseBin(ops, &resp); err != nil {
					t.Errorf("undecodable response on stream %d: %v", stream, err)
					return
				}
				a.resps = append(a.resps, resp)
			}
			rc.answers <- a
		}
	}()
	return rc
}

// frame appends one frame of reqs for stream to dst.
func frame(t *testing.T, dst []byte, stream uint32, reqs ...wire.Request) []byte {
	t.Helper()
	start := len(dst)
	dst = wire.BeginFrame(dst, stream)
	for i := range reqs {
		var err error
		if dst, err = wire.AppendRequestBin(dst, &reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return wire.EndFrame(dst, start)
}

func (rc *rawClient) write(b []byte) {
	rc.t.Helper()
	if _, err := rc.conn.Write(b); err != nil {
		rc.t.Fatal(err)
	}
}

// next is the next response frame, or a test failure after 5 s.
func (rc *rawClient) next() answer {
	rc.t.Helper()
	select {
	case a, ok := <-rc.answers:
		if !ok {
			rc.t.Fatal("connection closed while an answer was owed")
		}
		return a
	case <-time.After(5 * time.Second):
		rc.t.Fatal("no answer within 5s")
	}
	return answer{}
}

// TestReaderAnswersOneWritePerRead: what arrives in one read leaves in
// one write. One op on an idle connection costs exactly one server Write
// (no deferral may hold it back: the answer arrives with nothing else
// sent); 32 frames for 32 streams carried by one client Write are
// answered by one server Write, where a stream goroutine each would have
// paid up to 32.
func TestReaderAnswersOneWritePerRead(t *testing.T) {
	_, ln := startPipeServer(t)
	conn, metered := ln.dial(t)
	rc := newRawClient(t, conn)

	rc.write(frame(t, nil, 1, wire.Request{Op: wire.OpPing}))
	if a := rc.next(); a.stream != 1 || len(a.resps) != 1 || !a.resps[0].OK {
		t.Fatalf("ping answer = %+v", a)
	}
	if n := metered.writes.Load(); n != 1 {
		t.Fatalf("one op on an idle connection cost %d server writes, want 1", n)
	}

	const streams = 32
	var burst []byte
	for i := 0; i < streams; i++ {
		burst = frame(t, burst, uint32(2+i), wire.Request{Op: wire.OpAcquire, Name: fmt.Sprintf("k%d", i)})
	}
	rc.write(burst)
	seen := make(map[uint32]bool)
	for len(seen) < streams {
		a := rc.next()
		if len(a.resps) != 1 || !a.resps[0].Acquired || seen[a.stream] {
			t.Fatalf("acquire answer = %+v (repeated stream: %v)", a, seen[a.stream])
		}
		seen[a.stream] = true
	}
	if n := metered.writes.Load() - 1; n != 1 {
		t.Fatalf("%d frames in one read were answered in %d server writes, want 1", streams, n)
	}
}

// TestReaderHandsOverAtFirstBlockingOp: on a client connection, a frame
// [acquire a, release a, acquire b, ping] with b held by a sibling
// stream is answered in order — the reader's two answers leave while b
// is still held, the stream goroutine's two follow once it is granted —
// and the sibling's release, sent while that acquire is blocked, gets
// through: the reader never waits.
func TestReaderHandsOverAtFirstBlockingOp(t *testing.T) {
	mgr, ln := startPipeServer(t)
	conn, _ := ln.dial(t)
	rc := newRawClient(t, conn)

	rc.write(frame(t, nil, 1, wire.Request{Op: wire.OpAcquire, Name: "b"}))
	if a := rc.next(); a.stream != 1 || len(a.resps) != 1 || !a.resps[0].Acquired {
		t.Fatalf("sibling's acquire of b = %+v", a)
	}

	rc.write(frame(t, nil, 2,
		wire.Request{Op: wire.OpAcquire, Name: "a"},
		wire.Request{Op: wire.OpRelease, Name: "a"},
		wire.Request{Op: wire.OpAcquire, Name: "b"},
		wire.Request{Op: wire.OpPing}))
	a := rc.next()
	if a.stream != 2 || len(a.resps) != 2 || !a.resps[0].Acquired || !a.resps[1].OK || a.resps[1].Acquired {
		t.Fatalf("answers ahead of the blocked acquire = %+v, want [acquired a, released a] on stream 2", a)
	}

	rc.write(frame(t, nil, 1, wire.Request{Op: wire.OpRelease, Name: "b"}))
	var behind []wire.Response
	released := false
	for !released || len(behind) < 2 {
		a := rc.next()
		switch a.stream {
		case 1:
			if released || len(a.resps) != 1 || !a.resps[0].OK {
				t.Fatalf("sibling's release of b = %+v", a)
			}
			released = true
		case 2:
			behind = append(behind, a.resps...)
		default:
			t.Fatalf("answer on an unknown stream: %+v", a)
		}
	}
	if len(behind) != 2 || !behind[0].Acquired || !behind[1].OK || behind[1].Acquired {
		t.Fatalf("answers from the blocked acquire on = %+v, want [acquired b, ping ok]", behind)
	}
	if v := mgr.Violations(); v != 0 {
		t.Fatalf("%d violations", v)
	}
}

// TestFailedDeferredFlushEndsConnection: the flush before the reader's
// next read has no caller to return an error to. When it fails — here
// the connection's Write gives out three bytes into the answer — the
// connection must end as it does when a stream goroutine's write fails:
// the stream blocked in a contended acquire withdraws, the stream
// holding a grant releases it, the stream count returns to what it was
// and the connection's goroutines are gone (Sessions drops only after
// serveBinary has waited for every one of them).
func TestFailedDeferredFlushEndsConnection(t *testing.T) {
	mgr, ln := startPipeServer(t)

	healthyConn, _ := ln.dial(t)
	healthy := client.NewMux(healthyConn, 0)
	defer healthy.Close()
	other := openStream(t, healthy)
	if err := other.Acquire("busy"); err != nil {
		t.Fatal(err)
	}
	before, err := other.Stats()
	if err != nil {
		t.Fatal(err)
	}

	conn, metered := ln.dial(t)
	rc := newRawClient(t, conn)
	rc.write(frame(t, nil, 1, wire.Request{Op: wire.OpAcquire, Name: "held"}))
	if a := rc.next(); len(a.resps) != 1 || !a.resps[0].Acquired {
		t.Fatalf("acquire of held = %+v", a)
	}
	rc.write(frame(t, nil, 2, wire.Request{Op: wire.OpAcquire, Name: "busy"}))
	waitFor(t, 2*time.Second, "both streams to open", func() bool {
		st, err := other.Stats()
		return err == nil && st.Streams == before.Streams+2
	})
	// No counter observes a parked waiter; either side of the park, the
	// teardown below owes the same outcome.
	time.Sleep(20 * time.Millisecond)

	metered.budget.Store(3)
	rc.write(frame(t, nil, 3, wire.Request{Op: wire.OpPing}))

	waitFor(t, 5*time.Second, "the connection to be torn down", func() bool {
		st, err := other.Stats()
		return err == nil && st.Sessions == before.Sessions && st.Streams == before.Streams
	})
	for a := range rc.answers {
		t.Errorf("answer after the failed flush: %+v", a)
	}
	if ok, err := other.TryAcquire("held"); err != nil || !ok {
		t.Fatalf("the dead connection's grant was not released: TryAcquire = %v, %v", ok, err)
	}
	if err := other.Release("busy"); err != nil {
		t.Fatal(err)
	}
	if ok, err := other.TryAcquire("busy"); err != nil || !ok {
		t.Fatalf("the dead connection's blocked acquire still competes: TryAcquire = %v, %v", ok, err)
	}
	if v := mgr.Violations(); v != 0 {
		t.Fatalf("%d violations", v)
	}
}
