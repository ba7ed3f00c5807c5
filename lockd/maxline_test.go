package lockd_test

// Regression tests for the request-line length handling: the old
// bufio.Scanner reader hit its default 64KB cap and silently stopped
// scanning; the ReadSlice loop must instead (a) handle lines larger than
// the bufio buffer transparently up to the configured limit and (b)
// answer an over-limit line with one explanatory protocol error before
// hanging up.

import (
	"bufio"
	"net"
	"strings"
	"testing"
	"time"

	"anonmutex/internal/lockmgr"
	"anonmutex/lockd"
	"anonmutex/lockd/client"
	"anonmutex/lockd/wire"
)

// dialRaw opens a raw conn to a fresh server with the given line limit.
func dialRaw(t *testing.T, maxLine int) net.Conn {
	t.Helper()
	mgr, err := lockmgr.New(lockmgr.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := lockd.NewServer(mgr)
	srv.MaxLineBytes = maxLine
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := benchCtx()
		defer cancel()
		srv.Shutdown(ctx)
	})
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	return conn
}

// TestLongLineWithinLimit: a request far beyond bufio's 4KB internal
// buffer (and beyond the old scanner's 64KB cap) must work normally.
func TestLongLineWithinLimit(t *testing.T) {
	conn := dialRaw(t, 1<<20)
	name := strings.Repeat("k", 100_000)
	if _, err := conn.Write([]byte(`{"op":"acquire","name":"` + name + "\"}\n")); err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	br := bufio.NewReader(conn)
	line, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.DecodeResponse(line[:len(line)-1], &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK || !resp.Acquired {
		t.Fatalf("acquire with a 100KB name failed: %+v", resp)
	}
}

// TestSmallLimitBindsBelowBufioBuffer: a limit smaller than bufio's
// internal buffer must still be enforced (the fast path returns lines
// up to the buffer size without ever seeing ErrBufferFull).
func TestSmallLimitBindsBelowBufioBuffer(t *testing.T) {
	conn := dialRaw(t, 256)
	if _, err := conn.Write([]byte(`{"op":"acquire","name":"` + strings.Repeat("x", 1000) + "\"}\n")); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	line, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatalf("expected a protocol error response, got read error %v", err)
	}
	var resp wire.Response
	if err := wire.DecodeResponse(line[:len(line)-1], &resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK || !strings.Contains(resp.Err, "line limit") {
		t.Fatalf("want a line-limit protocol error, got %+v", resp)
	}
}

// TestOverlongLineProtocolError: a line over the limit draws one error
// response naming the problem, then the connection closes.
func TestOverlongLineProtocolError(t *testing.T) {
	conn := dialRaw(t, 8192)
	junk := strings.Repeat("x", 20_000)
	if _, err := conn.Write([]byte(`{"op":"acquire","name":"` + junk + "\"}\n")); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	line, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatalf("expected a protocol error response, got read error %v", err)
	}
	var resp wire.Response
	if err := wire.DecodeResponse(line[:len(line)-1], &resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK || !strings.Contains(resp.Err, "line limit") {
		t.Fatalf("want a line-limit protocol error, got %+v", resp)
	}
	// The server hangs up after the error.
	if _, err := br.ReadByte(); err == nil {
		t.Error("connection still open after a protocol error")
	}
}

// TestClientReadsLongResponseLine: the client's JSON reader accumulates
// a response line longer than its 4 KiB read buffer. A second acquire of
// a 10 000-byte name draws an error that echoes the name; it must arrive
// intact, and the session must go on answering.
func TestClientReadsLongResponseLine(t *testing.T) {
	_, _, addr := startServer(t, lockmgr.Config{})
	c, err := client.DialConn(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	name := strings.Repeat("n", 10_000)
	if err := c.Acquire(name); err != nil {
		t.Fatal(err)
	}
	err = c.Acquire(name)
	if err == nil || !strings.Contains(err.Error(), `"`+name+`"`) {
		t.Fatalf("second acquire of a held 10 000-byte name: want an error echoing the name, got %.200v", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after the long response: %v", err)
	}
}
