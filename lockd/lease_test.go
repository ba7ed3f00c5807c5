package lockd_test

// End-to-end coverage of the lease subsystem over the wire: fencing
// tokens on grants, heartbeat renewal, TTL expiry of silent holders,
// the stale-token rejection an expired holder sees on its next op, and
// the contract that keeps a field-skipping JSON reader working — it
// never needs the lease fields. The teardown-vs-expiry race regression
// lives here too; run the package under -race to give it teeth.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"anonmutex/internal/lockmgr"
	"anonmutex/lockd"
	"anonmutex/lockd/client"
	"anonmutex/lockd/wire"
)

// startLeaseServer is startServer with leases on: grants carry fencing
// tokens and expire after ttl without a heartbeat.
func startLeaseServer(t *testing.T, ttl time.Duration) (*lockd.Server, *lockmgr.Manager, string) {
	t.Helper()
	return startLeaseServerCfg(t, lockmgr.Config{HandlesPerLock: 4}, ttl)
}

// startLeaseServerCfg is startLeaseServer over a manager built from cfg.
func startLeaseServerCfg(t *testing.T, cfg lockmgr.Config, ttl time.Duration) (*lockd.Server, *lockmgr.Manager, string) {
	t.Helper()
	mgr, err := lockmgr.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := lockd.NewServer(mgr)
	srv.LeaseTTL = ttl
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

// TestLeaseExpiryFencesStaleHolder pins the acceptance contract end to
// end: a holder that stops heartbeating loses its grant one TTL later,
// a waiting contender gets the lock within 2×TTL, and the stale
// holder's next op is rejected through its fencing token.
func TestLeaseExpiryFencesStaleHolder(t *testing.T) {
	const ttl = 50 * time.Millisecond
	_, mgr, addr := startLeaseServer(t, ttl)
	holder, err := client.DialConn(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	if err := holder.Acquire("k"); err != nil {
		t.Fatal(err)
	}
	if err := holder.Acquire("k2"); err != nil {
		t.Fatal(err)
	}
	// The holder goes silent: no heartbeats, socket still open. A
	// second session's blocking acquire must complete within 2×TTL.
	successor, err := client.DialConn(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer successor.Close()
	start := time.Now()
	if err := successor.Acquire("k"); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 2*ttl {
		t.Errorf("orphan recovery took %v, want <= %v", took, 2*ttl)
	}
	// The expired holder's ops fence on its stale tokens: the explicit
	// release of k, and the bare heartbeat's renewal attempt on k2.
	if err := holder.Release("k"); !errors.Is(err, client.ErrFenced) {
		t.Errorf("stale release: %v, want ErrFenced", err)
	}
	if err := holder.Heartbeat(); !errors.Is(err, client.ErrFenced) {
		t.Errorf("stale heartbeat: %v, want ErrFenced", err)
	}
	if err := successor.Release("k"); err != nil {
		t.Fatal(err)
	}
	st, err := successor.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Expired != 2 {
		t.Errorf("expired = %d, want 2 (both of the silent holder's grants)", st.Expired)
	}
	if st.FencedRejects < 1 {
		t.Errorf("fenced rejects = %d, want >= 1", st.FencedRejects)
	}
	if st.Violations != 0 || mgr.Violations() != 0 {
		t.Errorf("violations: wire=%d manager=%d", st.Violations, mgr.Violations())
	}
}

// TestClientAutoHeartbeat: the background ticker keeps a grant alive
// across many TTLs; pausing it past the TTL expires the lease, and the
// resumed holder's next op reports ErrFenced.
func TestClientAutoHeartbeat(t *testing.T) {
	const ttl = 60 * time.Millisecond
	_, _, addr := startLeaseServer(t, ttl)
	c, err := client.DialConn(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.AutoHeartbeat(ttl / 4)
	if err := c.Acquire("k"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * ttl)
	if held, err := c.Holds("k"); err != nil || !held {
		t.Fatalf("holds after 3 TTLs of auto-heartbeat: held=%v err=%v", held, err)
	}
	// Simulate a stalled client: heartbeats stop but the process (and
	// socket) stay alive. The lease expires; resuming the ticker does
	// not resurrect it, and the next lifecycle op is fenced.
	c.PauseHeartbeat()
	time.Sleep(3 * ttl)
	c.ResumeHeartbeat()
	if err := c.Release("k"); !errors.Is(err, client.ErrFenced) {
		t.Errorf("release after paused heartbeat: %v, want ErrFenced", err)
	}
}

// TestHoldsReportsTokenAndTTL drives a raw JSON session to see the new
// response fields the typed client hides: acquire returns a nonzero
// fencing token, and holds echoes the token with the remaining TTL.
func TestHoldsReportsTokenAndTTL(t *testing.T) {
	const ttl = 500 * time.Millisecond
	_, _, addr := startLeaseServer(t, ttl)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	roundTrip := func(req wire.Request) wire.Response {
		t.Helper()
		line, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(append(line, '\n')); err != nil {
			t.Fatal(err)
		}
		raw, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		var resp wire.Response
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	acq := roundTrip(wire.Request{Op: wire.OpAcquire, Name: "k"})
	if !acq.OK || !acq.Acquired || acq.Token == 0 {
		t.Fatalf("acquire = %+v, want OK with nonzero token", acq)
	}
	if acq.TTLMS <= 0 || acq.TTLMS > int64(ttl/time.Millisecond) {
		t.Errorf("acquire ttl_ms = %d, want in (0, %d]", acq.TTLMS, int64(ttl/time.Millisecond))
	}
	holds := roundTrip(wire.Request{Op: wire.OpHolds, Name: "k"})
	if !holds.OK || !holds.Holds || holds.Token != acq.Token {
		t.Fatalf("holds = %+v, want held with token %d", holds, acq.Token)
	}
	if holds.TTLMS <= 0 {
		t.Errorf("holds ttl_ms = %d, want positive remaining TTL", holds.TTLMS)
	}
	hb := roundTrip(wire.Request{Op: wire.OpHeartbeat, Name: "k"})
	if !hb.OK || hb.TTLMS <= 0 {
		t.Fatalf("heartbeat = %+v, want OK with renewed TTL", hb)
	}
	rel := roundTrip(wire.Request{Op: wire.OpRelease, Name: "k"})
	if !rel.OK {
		t.Fatalf("release = %+v", rel)
	}
}

// TestJSONOldClientCompat is the pre-lease JSON client against a
// lease-running server: a decoder that only knows the old response
// fields (modeled by a struct without them — encoding/json drops
// unknown keys, exactly what the old tolerant decoder did) completes a
// full session. The server's lease bookkeeping still protects the key;
// the old client simply cannot see the token.
func TestJSONOldClientCompat(t *testing.T) {
	_, _, addr := startLeaseServer(t, time.Second)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	type oldResponse struct {
		OK       bool   `json:"ok"`
		Err      string `json:"err,omitempty"`
		Acquired bool   `json:"acquired,omitempty"`
		Holds    bool   `json:"holds,omitempty"`
	}
	roundTrip := func(op, name string) oldResponse {
		t.Helper()
		if _, err := fmt.Fprintf(conn, `{"op":%q,"name":%q}`+"\n", op, name); err != nil {
			t.Fatal(err)
		}
		raw, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		var resp oldResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatalf("old-shape decode of %s: %v", raw, err)
		}
		return resp
	}
	if r := roundTrip(wire.OpAcquire, "k"); !r.OK || !r.Acquired {
		t.Fatalf("old-client acquire = %+v", r)
	}
	if r := roundTrip(wire.OpHolds, "k"); !r.OK || !r.Holds {
		t.Fatalf("old-client holds = %+v", r)
	}
	if r := roundTrip(wire.OpRelease, "k"); !r.OK {
		t.Fatalf("old-client release = %+v", r)
	}
}

// TestTeardownRacesExpiry is the double-release regression test: a
// binary connection dies holding a grant at the same moment the TTL
// expires it. Teardown and the expiry goroutine route through one
// revocation path arbitrated by the fencing token, so exactly one side
// frees the lock — never both. Any double release corrupts the lease
// pool's free list or the handle refcount, which the post-run acquire
// sweep and the violation counters would catch; -race covers the rest.
func TestTeardownRacesExpiry(t *testing.T) {
	const ttl = 10 * time.Millisecond
	_, mgr, addr := startLeaseServer(t, ttl)
	const iters = 40
	for i := 0; i < iters; i++ {
		m, err := client.DialMux(addr)
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Open()
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("k%d", i%4)
		if err := st.Acquire(name); err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		// Drop the socket right at the TTL boundary so connection
		// teardown and lease expiry race for the same token.
		time.Sleep(ttl)
		m.Close()
	}
	// Every key must be acquirable again within the recovery bound.
	var wg sync.WaitGroup
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c, err := client.DialConn(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			name := fmt.Sprintf("k%d", k)
			ok, err := c.AcquireFor(name, 2*ttl+time.Second)
			if err != nil || !ok {
				t.Errorf("post-race acquire of %s: ok=%v err=%v", name, ok, err)
				return
			}
			if err := c.Release(name); err != nil {
				t.Errorf("post-race release of %s: %v", name, err)
			}
		}(k)
	}
	wg.Wait()
	if v := mgr.Violations(); v != 0 {
		t.Fatalf("%d violations after teardown/expiry races", v)
	}
}

// TestEndStreamSharesRevocationPath: end_stream on a stream holding a
// grant releases through the same token arbitration as expiry — the
// counters must show a clean voluntary release, not a revocation, and
// a sibling stream on the same socket is untouched.
func TestEndStreamSharesRevocationPath(t *testing.T) {
	_, _, addr := startLeaseServer(t, time.Second)
	m, err := client.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	a, err := m.Open()
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Acquire("ka"); err != nil {
		t.Fatal(err)
	}
	if err := b.Acquire("kb"); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil { // end_stream with a live grant
		t.Fatal(err)
	}
	// The sibling stream still works and still holds its grant.
	if held, err := b.Holds("kb"); err != nil || !held {
		t.Fatalf("sibling holds after end_stream: held=%v err=%v", held, err)
	}
	st, err := b.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Releases != 1 {
		t.Errorf("releases = %d, want 1 (end_stream frees via the release path)", st.Releases)
	}
	if st.Expired != 0 || st.Revoked != 0 {
		t.Errorf("expired=%d revoked=%d after clean end_stream, want 0, 0", st.Expired, st.Revoked)
	}
	if err := b.Release("kb"); err != nil {
		t.Fatal(err)
	}
}

// TestExpiredGrantOnRecycledLock: a grant the TTL revoked no longer pins
// its lock, so on a full table the lock is re-keyed to other names while
// the expired holder's session still lists the grant. The holder's
// release, and its session's teardown, must name the key the session
// holds — never read the recycled lock's name, which another session's
// acquire rewrites concurrently (run under -race). The release is
// fenced on the holder's own key, and every name stays usable.
func TestExpiredGrantOnRecycledLock(t *testing.T) {
	const ttl = 20 * time.Millisecond
	_, mgr, addr := startLeaseServerCfg(t, lockmgr.Config{Shards: 1, MaxLocksPerShard: 1, HandlesPerLock: 2}, ttl)
	holder, err := client.DialConn(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := holder.Acquire("a"); err != nil {
		t.Fatal(err)
	}
	if err := holder.Acquire("a2"); err != nil {
		t.Fatal(err)
	}
	// The holder goes silent. Once both grants expire, their locks are
	// idle and the one-slot table re-keys them to the cycler's names.
	cycler, err := client.DialConn(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cycler.Close()
	waitFor(t, 2*time.Second, "both grants expired", func() bool {
		st, err := cycler.Stats()
		return err == nil && st.Expired >= 2
	})
	cycle := func(i int) error {
		name := fmt.Sprintf("b%d", i)
		if err := cycler.Acquire(name); err != nil {
			return err
		}
		return cycler.Release(name)
	}
	evicted := mgr.Counters().Evictions
	for i := 0; mgr.Counters().Evictions == evicted; i++ {
		if err := cycle(i); err != nil {
			t.Fatal(err)
		}
	}
	// Keep re-keying while the holder releases one grant and drops the
	// other with its session.
	stop := make(chan struct{})
	cycled := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				cycled <- nil
				return
			default:
			}
			if err := cycle(i); err != nil {
				cycled <- err
				return
			}
		}
	}()
	// "a" expired first, so its lock is the one re-keyed to a b name.
	if err := holder.Release("a"); !errors.Is(err, client.ErrFenced) || !strings.Contains(err.Error(), `"a"`) {
		t.Errorf("release of an expired grant: %v, want a fenced error on \"a\"", err)
	}
	holder.Close()
	time.Sleep(10 * time.Millisecond)
	close(stop)
	if err := <-cycled; err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "a2", "b0"} {
		ok, err := cycler.AcquireFor(name, time.Second)
		if err != nil || !ok {
			t.Fatalf("acquire of %s after the recycling: ok=%v err=%v", name, ok, err)
		}
		if err := cycler.Release(name); err != nil {
			t.Fatal(err)
		}
	}
	if v := mgr.Violations(); v != 0 {
		t.Fatalf("%d violations", v)
	}
}
