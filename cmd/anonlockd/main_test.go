package main

import (
	"strings"
	"testing"
)

// TestRunErrors: every refusal returns from run before it waits for a
// signal, so the errors are checked in-process.
func TestRunErrors(t *testing.T) {
	// greedy parses as an anonmutex.Algorithm, but no lock runs it: the
	// daemon refuses before it listens, with one message naming it.
	if err := run([]string{"-alg", "greedy"}); err == nil || strings.Count(err.Error(), "greedy") != 1 {
		t.Errorf("run -alg greedy = %v, want one error naming the algorithm", err)
	}
	if err := run([]string{"-alg", "bogus"}); err == nil {
		t.Error("run with unknown algorithm succeeded")
	}
	if err := run([]string{"-addr", "256.256.256.256:1"}); err == nil {
		t.Error("run with unusable address succeeded")
	}
	if err := run([]string{"-data-dir", t.TempDir()}); err == nil {
		t.Error("run with -data-dir but no -lease-ttl succeeded")
	}
	if err := run([]string{"-addr", "127.0.0.1:0", "-data-dir", t.TempDir(), "-lease-ttl", "1s", "-fsync", "sometimes"}); err == nil {
		t.Error("run with an unknown -fsync policy succeeded")
	}
}
