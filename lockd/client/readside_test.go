package client

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"anonmutex/lockd/wire"
)

// goroutines lists the stacks of the goroutines whose stack contains
// every one of frags.
func goroutines(frags ...string) []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var found []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if !slices.ContainsFunc(frags, func(f string) bool { return !strings.Contains(g, f) }) {
			found = append(found, g)
		}
	}
	return found
}

// pingAsync runs st.Ping on its own goroutine and returns its outcome.
func pingAsync(st *Conn) chan error {
	done := make(chan error, 1)
	go func() { done <- st.Ping() }()
	return done
}

// within waits for done, failing the test after d.
func within(t *testing.T, done chan error, d time.Duration, what string) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("%s did not return within %v", what, d)
		return nil
	}
}

// TestMuxIdleSocketOwnsNoGoroutine: once every answer is delivered,
// nothing reads the socket, so an idle socket costs no goroutine — the
// caller that waited for the ping read its answer itself.
func TestMuxIdleSocketOwnsNoGoroutine(t *testing.T) {
	m, _, srv := newPipeMux(t)
	st, err := m.Open()
	if err != nil {
		t.Fatal(err)
	}
	done := pingAsync(st)
	srv.readPreamble()
	srv.answer(srv.readRound(1))
	if err := within(t, done, 5*time.Second, "Ping"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for {
		gs := goroutines("lockd/client.(*Mux)")
		if len(gs) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("an idle socket keeps %d goroutine(s) in the mux:\n%s", len(gs), strings.Join(gs, "\n\n"))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMuxReaderHandsOnOwedAnswers: stream A's caller holds the read side
// when stream B's request goes out, so B's caller waits for whoever
// reads. A is answered first and leaves; B's answer, still owed, must be
// read by the reader A hands the side to.
func TestMuxReaderHandsOnOwedAnswers(t *testing.T) {
	m, _, srv := newPipeMux(t)
	a, err := m.Open()
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Open()
	if err != nil {
		t.Fatal(err)
	}
	doneA := pingAsync(a)
	srv.readPreamble()
	idsA := srv.readRound(1)
	for deadline := time.Now().Add(5 * time.Second); !m.reading.Load(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("A's caller never took the read side")
		}
	}
	doneB := pingAsync(b)
	idsB := srv.readRound(1)
	for deadline := time.Now().Add(5 * time.Second); len(goroutines("[chan receive", "(*Conn).Exchange")) == 0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("B's caller never settled to wait for its answer")
		}
	}
	srv.answer(idsA)
	if err := within(t, doneA, 5*time.Second, "A's Ping"); err != nil {
		t.Fatal(err)
	}
	srv.answer(idsB) // fails on the pipe's deadline if nobody reads
	if err := within(t, doneB, 5*time.Second, "B's Ping"); err != nil {
		t.Fatal(err)
	}
}

// TestMuxDeadIdleSocketFailsNextOp: nothing watches an idle socket, so a
// peer that closes it is found by the next op, which must fail promptly
// with ErrUnavailable rather than hang, and so must every op after it.
func TestMuxDeadIdleSocketFailsNextOp(t *testing.T) {
	m, _, srv := newPipeMux(t)
	st, err := m.Open()
	if err != nil {
		t.Fatal(err)
	}
	done := pingAsync(st)
	srv.readPreamble()
	srv.answer(srv.readRound(1))
	if err := within(t, done, 5*time.Second, "Ping"); err != nil {
		t.Fatal(err)
	}
	srv.conn.Close()
	for i := 0; i < 2; i++ {
		err := within(t, pingAsync(st), 2*time.Second, "Ping on a dead socket")
		if !errors.Is(err, ErrUnavailable) {
			t.Fatalf("op %d on a socket the peer closed: %v, want ErrUnavailable", i, err)
		}
	}
	if _, err := m.Open(); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Open on a broken socket: %v, want ErrUnavailable", err)
	}
}

// leaseServer stands in for a leased lock server on loopback, speaking
// the binary protocol: it grants every acquire at once under a fresh
// fencing token, and acknowledges every other op but release_noack.
func leaseServer(t *testing.T) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go serveLeases(c)
		}
	}()
	return ln.Addr().String()
}

func serveLeases(c net.Conn) {
	defer c.Close()
	br := bufio.NewReader(c)
	var preamble [wire.PreambleLen]byte
	if _, err := io.ReadFull(br, preamble[:]); err != nil {
		return
	}
	var in, out []byte
	var token uint64
	for {
		stream, ops, buf, err := wire.ReadFrame(br, in, 0)
		if err != nil {
			return
		}
		in = buf
		out = wire.BeginFrame(out[:0], stream)
		answers := 0
		for len(ops) > 0 {
			var req wire.Request
			if ops, err = wire.DecodeRequestBin(ops, &req, nil); err != nil {
				return
			}
			resp := wire.Response{OK: true}
			switch req.Op {
			case wire.OpReleaseNoAck:
				continue
			case wire.OpAcquire, wire.OpTryAcquire:
				token++
				resp.Acquired, resp.Token = true, token
			}
			out = wire.AppendResponseBin(out, &resp)
			answers++
		}
		if answers > 0 {
			if _, err := c.Write(wire.EndFrame(out, 0)); err != nil {
				return
			}
		}
	}
}

// TestSessionsForgetReleasedGrants: a session's per-name bookkeeping
// lives only as long as the grant. A thousand leased acquire/release
// cycles on distinct names leave the routed session's grant pins and
// every stream's token map empty; Token reads the grant's token while it
// is held and 0 once it is released.
func TestSessionsForgetReleasedGrants(t *testing.T) {
	addr := leaseServer(t)
	cl, err := Dial(Options{Addrs: []string{addr}, ConnsPerSocket: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	s, err := cl.Open()
	if err != nil {
		t.Fatal(err)
	}
	m, err := DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	conn, err := m.Open()
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 1000
	for i := 0; i < cycles; i++ {
		name := fmt.Sprintf("grant-%04d", i)
		if ok, err := s.TryAcquire(name); err != nil || !ok {
			t.Fatalf("routed TryAcquire(%s) = %v, %v", name, ok, err)
		}
		if err := conn.Acquire(name); err != nil {
			t.Fatal(err)
		}
		if s.Token(name) == 0 || conn.Token(name) == 0 {
			t.Fatalf("%s held with tokens %d (routed) and %d (stream), want both nonzero", name, s.Token(name), conn.Token(name))
		}
		if err := s.Release(name); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			err = conn.Release(name)
		} else {
			err = conn.ReleaseNoAck(name)
		}
		if err != nil {
			t.Fatal(err)
		}
		if s.Token(name) != 0 || conn.Token(name) != 0 {
			t.Fatalf("%s released with tokens %d (routed) and %d (stream), want 0", name, s.Token(name), conn.Token(name))
		}
	}
	rs := s.(*routedSession)
	rs.mu.Lock()
	grants := len(rs.grants)
	subs := make([]*Conn, 0, len(rs.subs))
	for _, c := range rs.subs {
		subs = append(subs, c)
	}
	rs.mu.Unlock()
	if grants != 0 {
		t.Errorf("routed session keeps %d grant pins after %d released grants", grants, cycles)
	}
	for _, c := range append(subs, conn) {
		c.tokMu.Lock()
		if n := len(c.tokens); n != 0 {
			t.Errorf("stream %d keeps %d tokens after %d released grants", c.stream, n, cycles)
		}
		c.tokMu.Unlock()
	}
}
