package main

import (
	"net"
	"strings"
	"testing"
	"time"

	"anonmutex/lockd/client"
)

// TestServeAndShutdown boots the daemon on an ephemeral loopback port
// and stops it immediately through the test hook.
func TestServeAndShutdown(t *testing.T) {
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-handles", "2"}, stop)
	}()
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestSessionAgainstDaemon runs a session against the daemon on a
// pre-reserved loopback port.
func TestSessionAgainstDaemon(t *testing.T) {
	addr := pickAddr(t)
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- run([]string{"-addr", addr, "-handles", "2"}, stop) }()
	c := dialRetry(t, addr)
	defer c.Close()
	if err := c.Acquire("k"); err != nil {
		t.Fatal(err)
	}
	if err := c.Release("k"); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Acquires != 1 || st.Violations != 0 {
		t.Errorf("stats = %+v", st)
	}
	c.Close()
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	// greedy parses as an anonmutex.Algorithm, but no lock runs it: the
	// daemon refuses before it listens, with one message naming it.
	if err := run([]string{"-alg", "greedy"}, nil); err == nil || strings.Count(err.Error(), "greedy") != 1 {
		t.Errorf("run -alg greedy = %v, want one error naming the algorithm", err)
	}
	if err := run([]string{"-alg", "bogus"}, nil); err == nil {
		t.Error("run with unknown algorithm succeeded")
	}
	if err := run([]string{"-addr", "256.256.256.256:1"}, nil); err == nil {
		t.Error("run with unusable address succeeded")
	}
	if err := run([]string{"-data-dir", t.TempDir()}, nil); err == nil {
		t.Error("run with -data-dir but no -lease-ttl succeeded")
	}
	if err := run([]string{"-data-dir", t.TempDir(), "-lease-ttl", "1s", "-fsync", "sometimes"}, nil); err == nil {
		t.Error("run with an unknown -fsync policy succeeded")
	}
}

// TestDurableDaemonCycle boots the daemon journaling into a directory,
// holds and releases a key, drains it, and boots it again on the same
// directory: the graceful cycle must come up clean (the release was
// journaled, so there is nothing to recover).
func TestDurableDaemonCycle(t *testing.T) {
	dir := t.TempDir()
	for cycle := 0; cycle < 2; cycle++ {
		addr := pickAddr(t)
		stop := make(chan struct{})
		done := make(chan error, 1)
		go func() {
			done <- run([]string{"-addr", addr, "-handles", "2", "-lease-ttl", "2s", "-data-dir", dir}, stop)
		}()
		c := dialRetry(t, addr)
		if err := c.Acquire("dk"); err != nil {
			t.Fatal(err)
		}
		if tok := c.Token("dk"); tok == 0 {
			t.Fatal("no fencing token from the durable daemon")
		}
		if err := c.Release("dk"); err != nil {
			t.Fatal(err)
		}
		c.Close()
		close(stop)
		if err := <-done; err != nil {
			t.Fatalf("cycle %d: run: %v", cycle, err)
		}
	}
}

// pickAddr finds a free loopback port by binding and releasing it.
func pickAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func dialRetry(t *testing.T, addr string) *client.Conn {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := client.DialConn(addr)
		if err == nil {
			return c
		}
		if time.Now().After(deadline) {
			t.Fatalf("dialing %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
