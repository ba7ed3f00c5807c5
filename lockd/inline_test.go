package lockd_test

// The connection loop's execution model, held to counts rather than
// timings, on both framings: the reader executes what cannot block and
// its answers leave in one write per read; an op that can block goes to
// its stream's goroutine without the reader ever waiting; a stream owns a
// goroutine only while it owes an answer; and a flush that fails with no
// caller to tell still ends the connection cleanly. Everything runs over
// net.Pipe, where one client Write is one server Read.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
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

// jsonClient speaks newline-JSON by hand, beside rawClient: the tests
// decide what shares a Write. It reads on the test's own goroutine, which
// on a pipe is when the server's Write completes; the deadline turns a
// server that is not reading, or not answering, into a failure.
type jsonClient struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
}

func newJSONClient(t *testing.T, conn net.Conn) *jsonClient {
	t.Helper()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	return &jsonClient{t: t, conn: conn, br: bufio.NewReader(conn)}
}

// write sends the request lines in one Write.
func (jc *jsonClient) write(lines ...string) {
	jc.t.Helper()
	if _, err := jc.conn.Write([]byte(strings.Join(lines, "\n") + "\n")); err != nil {
		jc.t.Fatal(err)
	}
}

// next is the next response line.
func (jc *jsonClient) next() wire.Response {
	jc.t.Helper()
	line, err := jc.br.ReadBytes('\n')
	if err != nil {
		jc.t.Fatalf("no answer: %v", err)
	}
	var resp wire.Response
	if err := wire.DecodeResponse(line[:len(line)-1], &resp); err != nil {
		jc.t.Fatalf("undecodable response %q: %v", line, err)
	}
	return resp
}

// TestReaderAnswersOneWritePerRead: what arrives in one read leaves in
// one write. One op on an idle connection costs exactly one server Write
// (no deferral may hold it back: the answer arrives with nothing else
// sent); 32 frames for 32 streams carried by one client Write are
// answered by one server Write, where a stream goroutine each would have
// paid up to 32. The JSON door obeys the same counts: one line on an idle
// connection is one Write, 32 request lines in one client Write are
// answered by one.
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

	jconn, jmetered := ln.dial(t)
	jc := newJSONClient(t, jconn)
	jc.write(`{"op":"ping"}`)
	if resp := jc.next(); !resp.OK {
		t.Fatalf("JSON ping answer = %+v", resp)
	}
	if n := jmetered.writes.Load(); n != 1 {
		t.Fatalf("one line on an idle JSON connection cost %d server writes, want 1", n)
	}
	var lines []string
	for i := 0; i < streams; i++ {
		lines = append(lines, fmt.Sprintf(`{"op":"acquire","name":"j%d"}`, i))
	}
	jc.write(lines...)
	for i := 0; i < streams; i++ {
		if resp := jc.next(); !resp.Acquired {
			t.Fatalf("JSON acquire %d answer = %+v", i, resp)
		}
	}
	if n := jmetered.writes.Load() - 1; n != 1 {
		t.Fatalf("%d lines in one read were answered in %d server writes, want 1", streams, n)
	}
}

// TestReaderHandsOverAtFirstBlockingOp: on a client connection, a frame
// [acquire a, release a, acquire b, ping] with b held by a sibling
// stream is answered in order — the reader's two answers leave while b
// is still held, the stream goroutine's two follow once it is granted —
// and the sibling's release, sent while that acquire is blocked, gets
// through: the reader never waits. On a JSON connection, the lines [ping,
// acquire b, ping] in one write with b still held: the first ping is
// answered while the acquire is blocked, a cancel line in a second write
// is read — on a pipe the Write completes only if the reader is back in
// Read — and the answers [aborted, ping ok, cancel ok] follow in request
// order. end_stream, the multiplexed framing's op, is an unknown word
// there.
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

	// Stream 2 holds b now.
	jconn, _ := ln.dial(t)
	jc := newJSONClient(t, jconn)
	jc.write(`{"op":"ping"}`, `{"op":"acquire","name":"b"}`, `{"op":"ping"}`)
	if resp := jc.next(); !resp.OK || resp.Aborted {
		t.Fatalf("JSON answer ahead of the blocked acquire = %+v, want ping ok", resp)
	}
	jc.write(`{"op":"cancel"}`)
	if resp := jc.next(); !resp.OK || !resp.Aborted || resp.Acquired {
		t.Fatalf("JSON answer of the cancelled acquire = %+v, want aborted", resp)
	}
	for _, what := range []string{"ping", "cancel"} {
		if resp := jc.next(); !resp.OK || resp.Aborted {
			t.Fatalf("JSON answer behind the cancelled acquire (%s) = %+v, want ok", what, resp)
		}
	}
	jc.write(`{"op":"end_stream"}`, `{"op":"ping"}`)
	if resp := jc.next(); resp.OK || !strings.Contains(resp.Err, "unknown op") {
		t.Fatalf("JSON end_stream = %+v, want an unknown-op error", resp)
	}
	if resp := jc.next(); !resp.OK {
		t.Fatalf("JSON ping behind end_stream = %+v, want ok: the session must live on", resp)
	}
	if v := mgr.Violations(); v != 0 {
		t.Fatalf("%d violations", v)
	}
}

// TestProtocolErrorAnsweredBehindWhatIsOwed: one teardown serves both
// framings. A connection-fatal protocol error arriving while a stream is
// blocked in an acquire cancels that acquire, lets its goroutine answer
// (aborted), and only then is answered itself — once, on stream 0 of a
// binary connection, as one more line of a JSON one — before the hangup.
func TestProtocolErrorAnsweredBehindWhatIsOwed(t *testing.T) {
	mgr, ln := startPipeServer(t)
	hconn, _ := ln.dial(t)
	holder := newJSONClient(t, hconn)
	holder.write(`{"op":"acquire","name":"held"}`)
	if resp := holder.next(); !resp.Acquired {
		t.Fatalf("holder's acquire = %+v", resp)
	}

	conn, _ := ln.dial(t)
	rc := newRawClient(t, conn)
	rc.write(frame(t, nil, 1, wire.Request{Op: wire.OpPing}, wire.Request{Op: wire.OpAcquire, Name: "held"}))
	if a := rc.next(); a.stream != 1 || len(a.resps) != 1 || !a.resps[0].OK {
		t.Fatalf("answer ahead of the blocked acquire = %+v, want ping ok", a)
	}
	rc.write(wire.EndFrame(append(wire.BeginFrame(nil, 2), 0xEE), 0)) // no such opcode
	if a := rc.next(); a.stream != 1 || len(a.resps) != 1 || !a.resps[0].Aborted {
		t.Fatalf("answer owed when the bad frame arrived = %+v, want stream 1's acquire aborted", a)
	}
	if a := rc.next(); a.stream != 0 || len(a.resps) != 1 || a.resps[0].OK || a.resps[0].Err == "" {
		t.Fatalf("protocol error answer = %+v, want one error on stream 0", a)
	}
	if a, ok := <-rc.answers; ok {
		t.Fatalf("answer after the protocol error: %+v", a)
	}

	jconn, _ := ln.dial(t)
	jc := newJSONClient(t, jconn)
	jc.write(`{"op":"ping"}`, `{"op":"acquire","name":"held"}`)
	if resp := jc.next(); !resp.OK || resp.Aborted {
		t.Fatalf("JSON answer ahead of the blocked acquire = %+v, want ping ok", resp)
	}
	jc.write(`{not json`)
	if resp := jc.next(); !resp.OK || !resp.Aborted {
		t.Fatalf("JSON answer owed when the bad line arrived = %+v, want the acquire aborted", resp)
	}
	if resp := jc.next(); resp.OK || !strings.Contains(resp.Err, "bad request") {
		t.Fatalf("JSON protocol error answer = %+v, want one bad-request error", resp)
	}
	if line, err := jc.br.ReadBytes('\n'); err == nil {
		t.Fatalf("line after the protocol error: %q", line)
	}
	if v := mgr.Violations(); v != 0 {
		t.Fatalf("%d violations", v)
	}
}

// TestIdleStreamsOwnNoGoroutine: goroutines are O(connections), not
// O(streams). A connection costs the server one goroutine, its reader; 64
// streams opened and pinged on it cost no more than one stream does, while
// Stats.Streams reads 64; a stream blocked on a held key owns a goroutine
// for exactly as long as it owes the answer. The same holds for a JSON
// connection: one goroutine while idle, not a reader and a processing
// loop.
func TestIdleStreamsOwnNoGoroutine(t *testing.T) {
	mgr, ln := startPipeServer(t)
	// settled waits out goroutines that are on their way to exiting, then
	// reports the count.
	settled := func(want int) int {
		for i := 0; i < 500 && runtime.NumGoroutine() > want; i++ {
			time.Sleep(2 * time.Millisecond)
		}
		return runtime.NumGoroutine()
	}

	// Let goroutines that earlier tests left exiting finish first, so the
	// counts below move only with what this test does.
	before := runtime.NumGoroutine()
	for calm := 0; calm < 10; calm++ {
		time.Sleep(time.Millisecond)
		if n := runtime.NumGoroutine(); n != before {
			before, calm = n, 0
		}
	}
	conn, _ := ln.dial(t)
	rc := newRawClient(t, conn)
	ping := func(stream uint32) {
		t.Helper()
		rc.write(frame(t, nil, stream, wire.Request{Op: wire.OpPing}))
		if a := rc.next(); a.stream != stream || len(a.resps) != 1 || !a.resps[0].OK {
			t.Fatalf("ping on stream %d = %+v", stream, a)
		}
	}
	ping(1)
	// The server's reader and the raw client's.
	one := settled(before + 2)
	if one > before+2 {
		t.Fatalf("a connection with one idle stream costs %d goroutines, want 2 (its reader and the test client's)", one-before)
	}
	const streams = 64
	for id := uint32(2); id <= streams; id++ {
		ping(id)
	}
	idle := settled(one)
	if idle > one {
		t.Fatalf("%d more idle streams cost %d goroutines, want 0", streams-1, idle-one)
	}
	rc.write(frame(t, nil, 1, wire.Request{Op: wire.OpStats}))
	if a := rc.next(); len(a.resps) != 1 || a.resps[0].Stats == nil || a.resps[0].Stats.Streams != streams {
		t.Fatalf("stats = %+v, want %d streams", a, streams)
	}

	rc.write(frame(t, nil, 1, wire.Request{Op: wire.OpAcquire, Name: "held"}))
	if a := rc.next(); len(a.resps) != 1 || !a.resps[0].Acquired {
		t.Fatalf("acquire of held = %+v", a)
	}
	rc.write(frame(t, nil, 2, wire.Request{Op: wire.OpAcquire, Name: "held"}))
	waitFor(t, 2*time.Second, "the blocked stream's goroutine", func() bool {
		return runtime.NumGoroutine() == idle+1
	})
	rc.write(frame(t, nil, 1, wire.Request{Op: wire.OpRelease, Name: "held"}))
	for granted, released := false, false; !granted || !released; {
		switch a := rc.next(); {
		case a.stream == 1 && len(a.resps) == 1 && a.resps[0].OK:
			released = true
		case a.stream == 2 && len(a.resps) == 1 && a.resps[0].Acquired:
			granted = true
		default:
			t.Fatalf("answer = %+v, want stream 1's release or stream 2's grant", a)
		}
	}
	if n := settled(idle); n != idle {
		t.Fatalf("%d goroutines once the blocked stream was answered, want the idle figure %d", n, idle)
	}

	// Stream 2 holds "held" now.
	jconn, _ := ln.dial(t)
	jc := newJSONClient(t, jconn)
	jc.write(`{"op":"ping"}`)
	if resp := jc.next(); !resp.OK {
		t.Fatalf("JSON ping answer = %+v", resp)
	}
	if n := settled(idle + 1); n != idle+1 {
		t.Fatalf("an idle JSON connection costs %d goroutines, want 1", n-idle)
	}
	jc.write(`{"op":"acquire","name":"held"}`)
	waitFor(t, 2*time.Second, "the blocked JSON session's goroutine", func() bool {
		return runtime.NumGoroutine() == idle+2
	})
	rc.write(frame(t, nil, 2, wire.Request{Op: wire.OpRelease, Name: "held"}))
	if a := rc.next(); a.stream != 2 || len(a.resps) != 1 || !a.resps[0].OK {
		t.Fatalf("release of held = %+v", a)
	}
	if resp := jc.next(); !resp.Acquired {
		t.Fatalf("JSON acquire of held = %+v", resp)
	}
	if n := settled(idle + 1); n != idle+1 {
		t.Fatalf("%d goroutines once the blocked JSON session was answered, want %d", n, idle+1)
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
