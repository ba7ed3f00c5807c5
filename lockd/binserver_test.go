package lockd_test

// End-to-end coverage of the binary multiplexed transport: the choice of
// format by first byte (binary preamble vs the JSON fallback), stream
// independence (a blocked or cancelled stream must not desync its
// siblings), the stream lifecycle (end_stream releases grants without
// killing the socket; a dropped socket reaps every stream), and the
// frame-limit protocol error contract on stream 0.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anonmutex/internal/lockmgr"
	"anonmutex/lockd"
	"anonmutex/lockd/client"
	"anonmutex/lockd/wire"
)

func dialMux(t *testing.T, addr string) *client.Mux {
	t.Helper()
	m, err := client.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func openStream(t *testing.T, m *client.Mux) *client.Conn {
	t.Helper()
	c, err := m.Open()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestMuxRoundTripZeroAllocs holds the whole binary round trip — client
// encode, server pipeline, client decode — to the zero-allocation budget
// alloc_test.go holds the server's half to, for a blocking and a bounded
// acquire, over loopback TCP and over net.Pipe. The client's one engine
// serves the JSON framing too, so anything on the JSON branch that lets
// a request escape to the heap, or a framing that boxes, is paid for
// here as well.
func TestMuxRoundTripZeroAllocs(t *testing.T) {
	for _, transport := range []string{"tcp", "pipe"} {
		t.Run(transport, func(t *testing.T) {
			var c *client.Conn
			if transport == "tcp" {
				_, _, addr := startServer(t, lockmgr.Config{})
				c = openStream(t, dialMux(t, addr))
			} else {
				c = pipeStream(t)
			}
			cycles := map[string]func(){
				"acquire-release": func() {
					if err := c.Acquire("hot-key"); err != nil {
						t.Fatal(err)
					}
					if err := c.Release("hot-key"); err != nil {
						t.Fatal(err)
					}
				},
				"acquirefor-release": func() {
					if ok, err := c.AcquireFor("hot-key", time.Second); err != nil || !ok {
						t.Fatalf("uncontended AcquireFor: ok=%v err=%v", ok, err)
					}
					if err := c.Release("hot-key"); err != nil {
						t.Fatal(err)
					}
				},
			}
			for name, cycle := range cycles {
				for i := 0; i < 3; i++ {
					cycle() // materialize the lock, the stream, the pooled channels
				}
				if raceEnabled {
					t.Skip("under the race detector sync.Pool drops a quarter of its Puts, so the pooled waiter channel is reallocated at random")
				}
				if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
					t.Errorf("%s: %.1f allocs per cycle over the mux, budget is 0", name, allocs)
				}
			}
		})
	}
}

// pipeStream returns one stream of a binary mux over net.Pipe, against an
// in-process server: no kernel socket anywhere on the path.
func pipeStream(t *testing.T) *client.Conn {
	t.Helper()
	mgr, err := lockmgr.New(lockmgr.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := lockd.NewServer(mgr)
	ln := newPipeListener()
	go srv.Serve(ln)
	cs, ss := net.Pipe()
	ln.conns <- ss
	m := client.NewMux(cs, 0)
	t.Cleanup(func() {
		m.Close()
		ctx, cancel := benchCtx()
		defer cancel()
		srv.Shutdown(ctx)
	})
	return openStream(t, m)
}

// TestPooledSocketsRetireWithLastStream: the client's socket pool closes
// a socket whose last stream ends, so sessions that come and go leave no
// sockets behind — 200 sessions opened, pinged and closed one after
// another, four to a binary socket or one to a JSON one, end with at most
// one live server connection. Sessions opened with no close in between
// still pack: six sessions and the stats stream at four to a socket use
// two sockets.
func TestPooledSocketsRetireWithLastStream(t *testing.T) {
	for _, opts := range []client.Options{{Proto: client.ProtoBinary, ConnsPerSocket: 4}, {Proto: client.ProtoJSON}} {
		t.Run(opts.Proto, func(t *testing.T) {
			srv, _, addr := startServer(t, lockmgr.Config{})
			opts.Addrs = []string{addr}
			cl, err := client.Dial(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			for i := 0; i < 200; i++ {
				s, err := cl.Open()
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Ping(); err != nil {
					t.Fatal(err)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
			waitConns(t, srv, func(n int) bool { return n <= 1 }, "at most 1")
			if opts.Proto != client.ProtoBinary {
				return
			}
			var live []client.Session
			for i := 0; i < 6; i++ {
				s, err := cl.Open()
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Ping(); err != nil {
					t.Fatal(err)
				}
				live = append(live, s)
			}
			if _, err := cl.Stats(); err != nil {
				t.Fatal(err)
			}
			waitConns(t, srv, func(n int) bool { return n == 2 }, "exactly 2")
			for _, s := range live {
				s.Close()
			}
		})
	}
}

// waitConns waits for the server's live connection count to satisfy ok:
// a connection the client closed is torn down asynchronously.
func waitConns(t *testing.T, srv *lockd.Server, ok func(int) bool, want string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !ok(srv.Sessions()) {
		if time.Now().After(deadline) {
			t.Fatalf("%d live server connections, want %s", srv.Sessions(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMuxSessionLifecycle is TestSessionLifecycle over one stream of a
// multiplexed binary connection: the whole client API must behave
// identically on either transport.
func TestMuxSessionLifecycle(t *testing.T) {
	_, _, addr := startServer(t, lockmgr.Config{HandlesPerLock: 2})
	m := dialMux(t, addr)
	c := openStream(t, m)

	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if held, err := c.Holds("k"); err != nil || held {
		t.Fatalf("Holds before acquire: held=%v err=%v", held, err)
	}
	if err := c.Acquire("k"); err != nil {
		t.Fatal(err)
	}
	if held, err := c.Holds("k"); err != nil || !held {
		t.Fatalf("Holds inside critical section: held=%v err=%v", held, err)
	}
	if err := c.Acquire("k"); err == nil {
		t.Error("re-acquiring a held name in one session succeeded")
	}
	if err := c.Release("k"); err != nil {
		t.Fatal(err)
	}
	if err := c.Release("k"); err == nil {
		t.Error("releasing an unheld name succeeded")
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Acquires != 1 || st.Releases != 1 || st.Violations != 0 || st.Sessions != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Streams != 1 {
		t.Errorf("Streams = %d, want 1 (one open stream)", st.Streams)
	}
}

// TestMuxStreamsAreIndependentSessions: two streams of one socket are
// distinct lock-protocol sessions — one can hold what the other then
// fails to try, and holds answers per stream.
func TestMuxStreamsAreIndependentSessions(t *testing.T) {
	_, _, addr := startServer(t, lockmgr.Config{HandlesPerLock: 2})
	m := dialMux(t, addr)
	a := openStream(t, m)
	b := openStream(t, m)

	if err := a.Acquire("k"); err != nil {
		t.Fatal(err)
	}
	if ok, err := b.TryAcquire("k"); err != nil || ok {
		t.Fatalf("sibling stream try of a held lock: ok=%v err=%v", ok, err)
	}
	if held, err := b.Holds("k"); err != nil || held {
		t.Fatalf("sibling stream holds: held=%v err=%v", held, err)
	}
	if err := a.Release("k"); err != nil {
		t.Fatal(err)
	}
	if ok, err := b.TryAcquire("k"); err != nil || !ok {
		t.Fatalf("try after sibling release: ok=%v err=%v", ok, err)
	}
	if err := b.Release("k"); err != nil {
		t.Fatal(err)
	}
}

// TestMuxBlockedStreamDoesNotStallSiblings: an acquire blocked on one
// stream must not delay any sibling on the same socket (per-stream
// server goroutines, not per-connection).
func TestMuxBlockedStreamDoesNotStallSiblings(t *testing.T) {
	_, _, addr := startServer(t, lockmgr.Config{HandlesPerLock: 2})
	m := dialMux(t, addr)
	a := openStream(t, m)
	b := openStream(t, m)

	if err := a.Acquire("hot"); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() { blocked <- b.Acquire("hot") }() // parks behind a
	time.Sleep(20 * time.Millisecond)
	// Sibling traffic on a fresh stream must flow while b is parked.
	c := openStream(t, m)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 50; i++ {
			if err := c.Ping(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sibling stream stalled behind a blocked acquire")
	}
	if err := a.Release("hot"); err != nil {
		t.Fatal(err)
	}
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
	if err := b.Release("hot"); err != nil {
		t.Fatal(err)
	}
}

// TestMuxCancelDoesNotDesyncSiblings is the regression test for the
// Cancel+mux interaction: a mid-pipeline cancel on one stream must
// neither lose nor misroute responses on sibling streams sharing the
// socket. Run under -race it also exercises the demux bookkeeping.
func TestMuxCancelDoesNotDesyncSiblings(t *testing.T) {
	_, mgr, addr := startServer(t, lockmgr.Config{HandlesPerLock: 2})
	m := dialMux(t, addr)

	holder := openStream(t, m)
	if err := holder.Acquire("hot"); err != nil {
		t.Fatal(err)
	}

	const siblings = 4
	const rounds = 25
	var wg sync.WaitGroup
	// Sibling streams run an independent acquire/release workload on
	// their own names throughout the cancel churn.
	for i := 0; i < siblings; i++ {
		c := openStream(t, m)
		name := "sib-" + string(rune('a'+i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := c.Acquire(name); err != nil {
					t.Error(err)
					return
				}
				if held, err := c.Holds(name); err != nil || !held {
					t.Errorf("holds: held=%v err=%v", held, err)
					return
				}
				if err := c.Release(name); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// The cancelling stream repeatedly pipelines a blocked acquire with
	// a chasing cancel — the mid-pipeline cancel of the regression.
	canceller := openStream(t, m)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			got := make(chan error, 1)
			go func() { got <- canceller.Acquire("hot") }()
			if err := canceller.Cancel("hot"); err != nil {
				t.Error(err)
				return
			}
			if err := <-got; err != nil && !errors.Is(err, client.ErrAborted) {
				t.Errorf("cancelled acquire: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if err := holder.Release("hot"); err != nil {
		t.Fatal(err)
	}
	if v := mgr.Violations(); v != 0 {
		t.Fatalf("%d violations", v)
	}
}

// TestMuxStreamCloseReleasesGrants: Close on one stream releases its
// grants server-side and leaves the socket serving its siblings.
func TestMuxStreamCloseReleasesGrants(t *testing.T) {
	_, _, addr := startServer(t, lockmgr.Config{HandlesPerLock: 2})
	m := dialMux(t, addr)
	a := openStream(t, m)
	b := openStream(t, m)

	if err := a.Acquire("k"); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil { // end_stream: grants released, acked
		t.Fatal(err)
	}
	if err := a.Ping(); err == nil {
		t.Error("request on a closed stream succeeded")
	}
	if err := b.Acquire("k"); err != nil { // blocks until the close freed it
		t.Fatal(err)
	}
	if err := b.Release("k"); err != nil {
		t.Fatal(err)
	}
	st, err := b.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Sessions != 1 || st.Streams != 1 {
		t.Errorf("after stream close: Sessions=%d Streams=%d, want 1/1", st.Sessions, st.Streams)
	}
}

// TestMuxDisconnectReleasesAllStreams drops the socket with several
// streams mid-hold: every stream's grants must be reaped.
func TestMuxDisconnectReleasesAllStreams(t *testing.T) {
	_, mgr, addr := startServer(t, lockmgr.Config{HandlesPerLock: 2})
	m := dialMux(t, addr)
	names := []string{"k1", "k2", "k3"}
	for _, name := range names {
		c := openStream(t, m)
		if err := c.Acquire(name); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil { // vanish without releasing anything
		t.Fatal(err)
	}
	b, err := client.DialConn(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for _, name := range names {
		if err := b.Acquire(name); err != nil { // blocks until cleanup frees it
			t.Fatal(err)
		}
		if err := b.Release(name); err != nil {
			t.Fatal(err)
		}
	}
	if v := mgr.Violations(); v != 0 {
		t.Fatalf("%d violations", v)
	}
}

// TestMuxMutualExclusion contends many streams of one socket for one
// name with the client-side owner token and in-CS holds check.
func TestMuxMutualExclusion(t *testing.T) {
	_, mgr, addr := startServer(t, lockmgr.Config{HandlesPerLock: 2})
	m := dialMux(t, addr)
	const streams = 4
	const cycles = 10
	var owner atomic.Int64
	var violations atomic.Int64
	var wg sync.WaitGroup
	for i := 1; i <= streams; i++ {
		c := openStream(t, m)
		wg.Add(1)
		go func(me int64) {
			defer wg.Done()
			for s := 0; s < cycles; s++ {
				if err := c.Acquire("hot"); err != nil {
					t.Error(err)
					return
				}
				if !owner.CompareAndSwap(0, me) {
					violations.Add(1)
				}
				if held, err := c.Holds("hot"); err != nil || !held {
					t.Errorf("in-CS holds check: held=%v err=%v", held, err)
				}
				if !owner.CompareAndSwap(me, 0) {
					violations.Add(1)
				}
				if err := c.Release("hot"); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(i))
	}
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d client-observed violations", v)
	}
	if v := mgr.Violations(); v != 0 {
		t.Fatalf("%d manager-observed violations", v)
	}
}

// TestMuxNoAckKeepsFIFO stresses the one thing the mux does for an op
// the server never answers. The invariant: an OpReleaseNoAck takes a
// place in its stream's wire order and none in its waiter FIFO, and its
// frame is written like any other — by its own send, or by the sender
// that owns the write side. A waiter
// wrongly registered for it would swallow the next response and show
// here as a wrong holds answer or a hang; a frame nobody writes would
// leave the final release of a stream that then goes quiet stuck in the
// write buffer, and its key never comes back.
func TestMuxNoAckKeepsFIFO(t *testing.T) {
	_, mgr, addr := startServer(t, lockmgr.Config{HandlesPerLock: 2})
	m := dialMux(t, addr)
	const streams = 8
	const cycles = 200
	key := func(i int) string { return "noack-" + string(rune('a'+i)) }
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		c := openStream(t, m)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < cycles; n++ {
				// The previous cycle's release is ordered before this try on
				// the stream, so the lock must be free.
				if ok, err := c.TryAcquire(key(i)); err != nil || !ok {
					t.Errorf("stream %d cycle %d: TryAcquire = %v, %v", i, n, ok, err)
					return
				}
				if err := c.ReleaseNoAck(key(i)); err != nil {
					t.Errorf("stream %d cycle %d: ReleaseNoAck: %v", i, n, err)
					return
				}
				if held, err := c.Holds(key(i)); err != nil || held {
					t.Errorf("stream %d cycle %d: Holds after a no-ack release = %v, %v", i, n, held, err)
					return
				}
			}
			// End on a held lock released without an ack, then go quiet:
			// only the send's own flush can get this release to the server.
			if err := c.Acquire(key(i)); err != nil {
				t.Errorf("stream %d: final Acquire: %v", i, err)
				return
			}
			if err := c.ReleaseNoAck(key(i)); err != nil {
				t.Errorf("stream %d: final ReleaseNoAck: %v", i, err)
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("streams hung: a response was matched to the wrong waiter")
	}
	if t.Failed() {
		return
	}
	// Every key must come back through a second socket, promptly.
	probe := openStream(t, dialMux(t, addr))
	for i := 0; i < streams; i++ {
		if ok, err := probe.AcquireFor(key(i), 5*time.Second); err != nil || !ok {
			t.Errorf("%s never came back after its holder's last no-ack release: %v, %v", key(i), ok, err)
		}
	}
	if v := mgr.Violations(); v != 0 {
		t.Fatalf("%d manager-observed violations", v)
	}
}

// TestMuxReaderNeverWaitsOnPeer runs 64 streams through 2 000
// acquire/release cycles each over an unbuffered net.Pipe, where a write
// returns only once the peer has read all of it. The server's reader
// writes its answers before each read with no deadline, so the client's
// reader must never write: one that wrote the requests its dispatch woke
// before reading again, as the server's does, would end up blocked
// writing to a server reader blocked writing back, and neither would
// read again.
func TestMuxReaderNeverWaitsOnPeer(t *testing.T) {
	mgr, ln := startPipeServer(t)
	c, _ := ln.dial(t)
	m := client.NewMux(c, 0)
	defer m.Close()
	const streams, cycles = 64, 2000
	errs := make(chan error, streams)
	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		st := openStream(t, m)
		key := "peer-" + strconv.Itoa(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < cycles; n++ {
				if err := st.Acquire(key); err != nil {
					errs <- err
					return
				}
				if err := st.Release(key); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	start := time.Now()
	select {
	case <-done:
		t.Logf("%d streams × %d cycles in %v", streams, cycles, time.Since(start).Round(time.Millisecond))
	case <-time.After(20 * time.Second):
		m.Close() // unwind the streams before failing
		<-done
		t.Fatal("client and server wedged: each reader blocked writing to the other")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if v := mgr.Violations(); v != 0 {
		t.Fatalf("%d violations", v)
	}
}

// TestMuxBatch: a batched acquire+holds+release costs one frame and
// comes back as matched in-order responses.
func TestMuxBatch(t *testing.T) {
	_, _, addr := startServer(t, lockmgr.Config{HandlesPerLock: 2})
	m := dialMux(t, addr)
	c := openStream(t, m)
	reqs := []wire.Request{
		{Op: wire.OpAcquire, Name: "k"},
		{Op: wire.OpHolds, Name: "k"},
		{Op: wire.OpRelease, Name: "k"},
	}
	resps := make([]wire.Response, len(reqs))
	if err := c.Batch(reqs, resps); err != nil {
		t.Fatal(err)
	}
	if !resps[0].Acquired || !resps[1].Holds || !resps[2].OK {
		t.Errorf("batch responses = %+v", resps)
	}
}

// TestJSONFallbackOldClient verifies the choice of format by first byte
// end to end: raw newline-JSON, no preamble — what nc or a script sends —
// must be served as a JSON session.
func TestJSONFallbackOldClient(t *testing.T) {
	_, _, addr := startServer(t, lockmgr.Config{HandlesPerLock: 2})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	roundTrip := func(line string) wire.Response {
		t.Helper()
		if _, err := conn.Write([]byte(line + "\n")); err != nil {
			t.Fatal(err)
		}
		raw, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		var resp wire.Response
		if err := wire.DecodeResponse(raw[:len(raw)-1], &resp); err != nil {
			t.Fatalf("unparseable response %q: %v", raw, err)
		}
		return resp
	}
	if resp := roundTrip(`{"op":"acquire","name":"k"}`); !resp.Acquired {
		t.Fatalf("acquire: %+v", resp)
	}
	if resp := roundTrip(`{"op":"release","name":"k"}`); !resp.OK {
		t.Fatalf("release: %+v", resp)
	}
	if resp := roundTrip(`{"op":"ping"}`); !resp.OK {
		t.Fatalf("ping: %+v", resp)
	}
}

// TestBinaryProtocolErrors exercises the frame-level error contract: the
// server answers exactly once, on the reserved stream 0, then hangs up —
// the binary mirror of the JSON oversized-line contract.
func TestBinaryProtocolErrors(t *testing.T) {
	readStream0Err := func(t *testing.T, conn net.Conn) string {
		t.Helper()
		br := bufio.NewReader(conn)
		stream, ops, _, err := wire.ReadFrame(br, nil, 0)
		if err != nil {
			t.Fatalf("reading error frame: %v", err)
		}
		if stream != 0 {
			t.Fatalf("error frame on stream %d, want 0", stream)
		}
		var resp wire.Response
		if _, err := wire.DecodeResponseBin(ops, &resp); err != nil {
			t.Fatalf("decoding error frame: %v", err)
		}
		if resp.OK || resp.Err == "" {
			t.Fatalf("error frame = %+v", resp)
		}
		// Exactly once, then hang up: the next read must be EOF.
		if _, err := br.ReadByte(); err != io.EOF {
			t.Errorf("after the error frame: %v, want EOF", err)
		}
		return resp.Err
	}

	t.Run("oversized frame", func(t *testing.T) {
		srv, mgr, err := newBinServer(16) // tiny frame limit
		if err != nil {
			t.Fatal(err)
		}
		defer mgr.Close()
		conn := dialBin(t, srv)
		hdr := make([]byte, 8)
		binary.LittleEndian.PutUint32(hdr, 1<<16) // way past the limit
		binary.LittleEndian.PutUint32(hdr[4:], 1)
		if _, err := conn.Write(hdr); err != nil {
			t.Fatal(err)
		}
		if msg := readStream0Err(t, conn); !strings.Contains(msg, "frame limit") {
			t.Errorf("err = %q", msg)
		}
	})
	t.Run("reserved stream 0", func(t *testing.T) {
		srv, mgr, err := newBinServer(0)
		if err != nil {
			t.Fatal(err)
		}
		defer mgr.Close()
		conn := dialBin(t, srv)
		frame := wire.BeginFrame(nil, 0)
		frame, _ = wire.AppendRequestBin(frame, &wire.Request{Op: wire.OpPing})
		if _, err := conn.Write(wire.EndFrame(frame, 0)); err != nil {
			t.Fatal(err)
		}
		if msg := readStream0Err(t, conn); !strings.Contains(msg, "reserved") {
			t.Errorf("err = %q", msg)
		}
	})
	t.Run("unknown opcode", func(t *testing.T) {
		srv, mgr, err := newBinServer(0)
		if err != nil {
			t.Fatal(err)
		}
		defer mgr.Close()
		conn := dialBin(t, srv)
		frame := wire.BeginFrame(nil, 1)
		frame = append(frame, 0xEE) // no such opcode
		if _, err := conn.Write(wire.EndFrame(frame, 0)); err != nil {
			t.Fatal(err)
		}
		if msg := readStream0Err(t, conn); !strings.Contains(msg, "bad request") {
			t.Errorf("err = %q", msg)
		}
	})
	t.Run("short frame", func(t *testing.T) {
		srv, mgr, err := newBinServer(0)
		if err != nil {
			t.Fatal(err)
		}
		defer mgr.Close()
		conn := dialBin(t, srv)
		// A length of 3 cannot even hold the stream id.
		if _, err := conn.Write([]byte{3, 0, 0, 0, 1, 0, 0, 0}); err != nil {
			t.Fatal(err)
		}
		if msg := readStream0Err(t, conn); !strings.Contains(msg, "shorter than its stream id") {
			t.Errorf("err = %q", msg)
		}
	})
	// One preamble is spoken. Anything else in its place — a corrupted
	// magic, the magic of a retired binary dialect, a hello byte asking
	// for something undefined — is refused before any frame is read, so
	// mixed versions fail closed.
	for name, preamble := range map[string][wire.PreambleLen]byte{
		"bad magic":          {wire.MagicByte, 'X', 'K', 0},
		"retired magic LK1":  {wire.MagicByte, 'L', 'K', '1'},
		"retired magic LKP":  {wire.MagicByte, 'L', 'K', 'P'},
		"unknown hello bits": {wire.MagicByte, 'L', 'K', wire.HelloForwarded | 0x40},
	} {
		t.Run(name, func(t *testing.T) {
			srv, mgr, err := newBinServer(0)
			if err != nil {
				t.Fatal(err)
			}
			defer mgr.Close()
			conn := dialPreamble(t, srv, preamble)
			if msg := readStream0Err(t, conn); !strings.Contains(msg, "magic") {
				t.Errorf("err = %q", msg)
			}
		})
	}
}

// binServer is a server with a configurable frame limit on a loopback
// listener, for raw-wire tests.
type binServer struct {
	addr     string
	shutdown func()
}

func newBinServer(maxFrame int) (*binServer, *lockmgr.Manager, error) {
	mgr, err := lockmgr.New(lockmgr.Config{HandlesPerLock: 2})
	if err != nil {
		return nil, nil, err
	}
	srv := lockd.NewServer(mgr)
	srv.MaxFrameBytes = maxFrame
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Close()
		return nil, nil, err
	}
	go srv.Serve(ln)
	return &binServer{addr: ln.Addr().String(), shutdown: func() { ln.Close() }}, mgr, nil
}

// dialBin dials the raw socket and sends the binary preamble.
func dialBin(t *testing.T, srv *binServer) net.Conn {
	t.Helper()
	return dialPreamble(t, srv, wire.Preamble(0))
}

// dialPreamble dials the raw socket and leads with preamble, well formed
// or not.
func dialPreamble(t *testing.T, srv *binServer, preamble [wire.PreambleLen]byte) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", srv.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close(); srv.shutdown() })
	if _, err := conn.Write(preamble[:]); err != nil {
		t.Fatal(err)
	}
	return conn
}
