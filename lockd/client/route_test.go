package client

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestOwnerCacheLearnLookupInvalidate(t *testing.T) {
	var oc ownerCache
	if _, ok := oc.lookup("k"); ok {
		t.Fatal("empty cache reported an owner")
	}
	oc.learn("k", "a:1", 1)
	if addr, ok := oc.lookup("k"); !ok || addr != "a:1" {
		t.Fatalf("lookup after learn = %q, %v", addr, ok)
	}
	// A redirect that proved wrong drops exactly that entry.
	oc.learn("other", "b:1", 1)
	oc.invalidate("k")
	if _, ok := oc.lookup("k"); ok {
		t.Fatal("invalidated entry still cached")
	}
	if addr, ok := oc.lookup("other"); !ok || addr != "b:1" {
		t.Fatalf("invalidate dropped an unrelated entry: %q, %v", addr, ok)
	}
}

func TestOwnerCacheEpochFlush(t *testing.T) {
	var oc ownerCache
	oc.learn("k1", "a:1", 1)
	oc.learn("k2", "b:1", 1)

	// A newer epoch flushes everything learned under the old view: after
	// a membership change every cached owner is suspect.
	oc.learn("k3", "c:1", 2)
	if oc.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", oc.Epoch())
	}
	for _, k := range []string{"k1", "k2"} {
		if addr, ok := oc.lookup(k); ok {
			t.Fatalf("stale-epoch entry %s survived the flush (%q)", k, addr)
		}
	}
	if addr, ok := oc.lookup("k3"); !ok || addr != "c:1" {
		t.Fatalf("entry that triggered the flush missing: %q, %v", addr, ok)
	}

	// A redirect computed under an epoch the cache has already moved past
	// is ignored: it describes a view that no longer exists.
	oc.learn("k4", "d:1", 1)
	if _, ok := oc.lookup("k4"); ok {
		t.Fatal("stale-epoch redirect was learned")
	}
	if oc.Epoch() != 2 {
		t.Fatalf("stale learn moved the epoch to %d", oc.Epoch())
	}
}

// TestOwnerCacheConcurrent drives lookups, learns across epochs, and
// invalidations from many goroutines; the race detector is the judge.
func TestOwnerCacheConcurrent(t *testing.T) {
	var oc ownerCache
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				name := fmt.Sprintf("k%d", i%7)
				switch g % 3 {
				case 0:
					oc.learn(name, "a:1", uint64(i%5))
				case 1:
					if addr, ok := oc.lookup(name); ok && addr == "" {
						t.Error("cached empty owner")
					}
				case 2:
					oc.invalidate(name)
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestFallbackAddrDeterministic(t *testing.T) {
	addrs := []string{"a:1", "b:1", "c:1"}
	seen := map[string]bool{}
	for _, name := range []string{"alpha", "beta", "gamma", "delta", "epsilon"} {
		first := fallbackAddr(addrs, name, nil)
		found := false
		for _, a := range addrs {
			found = found || a == first
		}
		if !found {
			t.Fatalf("fallbackAddr(%q) = %q, not in the address list", name, first)
		}
		for i := 0; i < 5; i++ {
			if got := fallbackAddr(addrs, name, nil); got != first {
				t.Fatalf("fallbackAddr(%q) flapped: %q then %q", name, first, got)
			}
		}
		seen[first] = true
	}
	if len(seen) < 2 {
		t.Errorf("five keys all guessed the same member; the hash is not spreading")
	}

	// A skipped address is avoided while alternatives exist…
	avoided := fallbackAddr(addrs, "alpha", func(a string) bool { return a == fallbackAddr(addrs, "alpha", nil) })
	if avoided == fallbackAddr(addrs, "alpha", nil) {
		t.Error("skip did not exclude the quarantined address")
	}
	// …but an all-skipped set still yields a usable guess.
	if got := fallbackAddr(addrs, "alpha", func(string) bool { return true }); got != fallbackAddr(addrs, "alpha", nil) {
		t.Errorf("all-skipped fallback = %q, want the unskipped choice", got)
	}
	// A lone address is the guess, skipped or not.
	if got := fallbackAddr(addrs[:1], "alpha", func(string) bool { return true }); got != addrs[0] {
		t.Errorf("one-address fallback = %q, want %q", got, addrs[0])
	}
}

func TestDialOptionDefaults(t *testing.T) {
	cases := []struct {
		name    string
		in      Options
		wantErr bool
		check   func(Options) error
	}{
		{name: "no addrs", in: Options{}, wantErr: true},
		{name: "blank addr", in: Options{Addrs: []string{" "}}, wantErr: true},
		{name: "json default", in: Options{Addrs: []string{"a:1"}}, check: func(o Options) error {
			if o.Proto != ProtoJSON {
				return fmt.Errorf("Proto = %q", o.Proto)
			}
			return nil
		}},
		{name: "conns imply binary", in: Options{Addrs: []string{"a:1"}, ConnsPerSocket: 4}, check: func(o Options) error {
			if o.Proto != ProtoBinary {
				return fmt.Errorf("Proto = %q", o.Proto)
			}
			return nil
		}},
		{name: "binary defaults conns", in: Options{Addrs: []string{"a:1"}, Proto: ProtoBinary}, check: func(o Options) error {
			if o.ConnsPerSocket != 1 {
				return fmt.Errorf("ConnsPerSocket = %d", o.ConnsPerSocket)
			}
			return nil
		}},
		{name: "json rejects conns", in: Options{Addrs: []string{"a:1"}, Proto: ProtoJSON, ConnsPerSocket: 2}, wantErr: true},
		{name: "unknown proto", in: Options{Addrs: []string{"a:1"}, Proto: "quic"}, wantErr: true},
		{name: "negative conns", in: Options{Addrs: []string{"a:1"}, ConnsPerSocket: -1}, wantErr: true},
		{name: "routing defaults", in: Options{Addrs: []string{"a:1", "b:1"}}, check: func(o Options) error {
			if o.Proto != ProtoJSON || o.ConnsPerSocket != 0 || o.Heartbeat != 0 || o.CrashTimeout != 10*time.Second {
				return fmt.Errorf("defaults = %+v", o)
			}
			return nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := tc.in.withDefaults()
			if tc.wantErr {
				if err == nil {
					t.Fatalf("withDefaults(%+v) accepted", tc.in)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if tc.check != nil {
				if err := tc.check(out); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// TestRetryDelay pins the backoff envelope: every sample of retry n
// lands in [min(base·2ⁿ, max)/2, min(base·2ⁿ, max)], and once the
// exponent passes the cap the envelope stops growing.
func TestRetryDelay(t *testing.T) {
	const base = 10 * time.Millisecond
	const max = 80 * time.Millisecond
	for attempt := 0; attempt < 12; attempt++ {
		want := base << attempt
		if want > max || want <= 0 {
			want = max
		}
		for i := 0; i < 200; i++ {
			d := retryDelay(attempt, base, max)
			if d < want/2 || d > want {
				t.Fatalf("retryDelay(%d) = %v, want within [%v, %v]", attempt, d, want/2, want)
			}
		}
	}
	// A giant attempt number must not overflow into a negative or
	// over-cap delay.
	if d := retryDelay(1<<30, base, max); d < max/2 || d > max {
		t.Fatalf("retryDelay(huge) = %v", d)
	}
}

// TestDialRefusesBadOptions pins that Dial itself (not just the helper)
// rejects an unusable configuration instead of failing at first use.
func TestDialRefusesBadOptions(t *testing.T) {
	if _, err := Dial(Options{}); err == nil {
		t.Fatal("Dial with no addresses succeeded")
	}
	cl, err := Dial(Options{Addrs: []string{"127.0.0.1:1"}})
	if err != nil {
		t.Fatalf("lazy Dial should not connect: %v", err)
	}
	defer cl.Close()
	s, err := cl.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Ping(); !errors.Is(err, ErrUnavailable) {
		t.Errorf("Ping against a dead address = %v, want ErrUnavailable", err)
	}
}

// TestDialClosedPortIsUnavailable pins what a routed op reports when it
// must dial a node that is not there: ErrUnavailable, on either
// protocol — the error the load generator's grant-loss tolerance and the
// routed retry loop both key on.
func TestDialClosedPortIsUnavailable(t *testing.T) {
	for _, proto := range []string{ProtoJSON, ProtoBinary} {
		t.Run(proto, func(t *testing.T) {
			cl, err := Dial(Options{Addrs: []string{"127.0.0.1:1"}, Proto: proto})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			s, err := cl.Open()
			if err != nil {
				t.Fatal(err)
			}
			ops := []struct {
				name string
				run  func() error
			}{
				{"Acquire", func() error { return s.Acquire("k") }},
				{"Release", func() error { return s.Release("k") }},
				{"Ping", s.Ping},
			}
			for _, op := range ops {
				if err := op.run(); !errors.Is(err, ErrUnavailable) {
					t.Errorf("%s against a closed port = %v, want ErrUnavailable", op.name, err)
				}
			}
		})
	}
}
