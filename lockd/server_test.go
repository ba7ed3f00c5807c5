package lockd_test

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net"
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

// startServer runs a server on a loopback listener and tears it down
// with the test.
func startServer(t *testing.T, cfg lockmgr.Config) (*lockd.Server, *lockmgr.Manager, string) {
	t.Helper()
	mgr, err := lockmgr.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := lockd.NewServer(mgr)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
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
	})
	return srv, mgr, ln.Addr().String()
}

func TestSessionLifecycle(t *testing.T) {
	_, _, addr := startServer(t, lockmgr.Config{HandlesPerLock: 2})
	c, err := client.DialConn(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

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
}

func TestTryAcquireAcrossSessions(t *testing.T) {
	_, _, addr := startServer(t, lockmgr.Config{HandlesPerLock: 2})
	a, err := client.DialConn(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := client.DialConn(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if ok, err := a.TryAcquire("k"); err != nil || !ok {
		t.Fatalf("first try: ok=%v err=%v", ok, err)
	}
	if ok, err := b.TryAcquire("k"); err != nil || ok {
		t.Fatalf("try of a lock held by another session: ok=%v err=%v", ok, err)
	}
	if err := a.Release("k"); err != nil {
		t.Fatal(err)
	}
	if ok, err := b.TryAcquire("k"); err != nil || !ok {
		t.Fatalf("try after release: ok=%v err=%v", ok, err)
	}
	if err := b.Release("k"); err != nil {
		t.Fatal(err)
	}
}

// TestDisconnectReleasesGrants drops a connection mid-hold: the server's
// session cleanup must free the lock for the next client.
func TestDisconnectReleasesGrants(t *testing.T) {
	_, mgr, addr := startServer(t, lockmgr.Config{HandlesPerLock: 2})
	a, err := client.DialConn(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Acquire("k"); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil { // vanish without releasing
		t.Fatal(err)
	}
	b, err := client.DialConn(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Acquire("k"); err != nil { // blocks until cleanup frees it
		t.Fatal(err)
	}
	if err := b.Release("k"); err != nil {
		t.Fatal(err)
	}
	if v := mgr.Violations(); v != 0 {
		t.Fatalf("%d violations", v)
	}
}

// TestMutualExclusionOverNetwork has several sessions contend for one
// name with a client-side owner token and the in-CS holds check.
func TestMutualExclusionOverNetwork(t *testing.T) {
	_, mgr, addr := startServer(t, lockmgr.Config{HandlesPerLock: 2})
	const sessions = 4
	const cycles = 10
	var owner atomic.Int64
	var violations atomic.Int64
	var wg sync.WaitGroup
	for i := 1; i <= sessions; i++ {
		wg.Add(1)
		go func(me int64) {
			defer wg.Done()
			c, err := client.DialConn(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
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

// TestShutdownForceClosesIdleSessions: a connected idle client must not
// stall Shutdown past its context.
func TestShutdownForceClosesIdleSessions(t *testing.T) {
	mgr, err := lockmgr.New(lockmgr.Config{HandlesPerLock: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := lockd.NewServer(mgr)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	c, err := client.DialConn(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Acquire("k"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("Shutdown took %v", elapsed)
	}
	if err := <-serveErr; err != nil {
		t.Errorf("Serve: %v", err)
	}
	// The force-closed session must have released its grant.
	if err := mgr.Close(); err != nil {
		t.Errorf("manager still has leases after shutdown: %v", err)
	}
}

// TestRawProtocolErrors exercises the wire-level error paths a typed
// client cannot reach.
func TestRawProtocolErrors(t *testing.T) {
	_, _, addr := startServer(t, lockmgr.Config{HandlesPerLock: 2})
	send := func(line string) wire.Response {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte(line + "\n")); err != nil {
			t.Fatal(err)
		}
		raw, err := bufio.NewReader(conn).ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		var resp wire.Response
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatalf("unparseable response %q: %v", raw, err)
		}
		return resp
	}
	if resp := send(`{"op":"levitate"}`); resp.OK || !strings.Contains(resp.Err, "unknown op") {
		t.Errorf("unknown op: %+v", resp)
	}
	if resp := send(`{"op":"acquire"}`); resp.OK || !strings.Contains(resp.Err, "needs a name") {
		t.Errorf("missing name: %+v", resp)
	}
	if resp := send(`{not json`); resp.OK || !strings.Contains(resp.Err, "bad request") {
		t.Errorf("malformed line: %+v", resp)
	}
}

// TestDecodeRejectsGarbage: on a live connection a malformed line draws
// exactly one bad-request response and a hangup. (That the decoder
// itself errors on each of these is lockd/wire's test of the same name.)
func TestDecodeRejectsGarbage(t *testing.T) {
	_, _, addr := startServer(t, lockmgr.Config{})
	for _, line := range []string{
		``, `x`, `{`, `{"op"}`, `{"op":}`, `{"op":"a"`, `{"op":"a",}`,
		`{"timeout_ms":"5"}`, `{"op":7}`, `{"op":"a" "name":"b"}`,
		`{"name":"unterminated}`, `[]`, `"acquire"`,
		// Trailing data after the object: a second object on the line
		// would otherwise be silently dropped and desynchronize a
		// pipelining client.
		`{"op":"ping"} junk`,
		`{"op":"acquire","name":"a"}{"op":"release","name":"a"}`,
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Write([]byte(line + "\n")); err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(conn)
		raw, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("%q: no response before the hangup: %v", line, err)
		}
		var resp wire.Response
		if err := wire.DecodeResponse(raw[:len(raw)-1], &resp); err != nil {
			t.Fatalf("%q: unparseable response %q: %v", line, raw, err)
		}
		if resp.OK || !strings.Contains(resp.Err, "bad request") {
			t.Errorf("%q: want a bad-request error, got %+v", line, resp)
		}
		if rest, err := io.ReadAll(br); err != nil || len(rest) != 0 {
			t.Errorf("%q: want a hangup after one response, got %q, %v", line, rest, err)
		}
		conn.Close()
	}
}
