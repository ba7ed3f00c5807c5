package lockd_test

// Proxy-mode forwarding tests: the happy path (a foreign-key acquire
// through a proxy node lands on the owner and comes back in one
// client-visible round trip, hinted), the structural loop guard (two
// nodes with divergent views degrade to a redirect instead of
// forwarding in a cycle), the client-side redirect hop cap the guard
// falls back on, forwarded cancel, and recovery from a severed
// inter-node socket.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anonmutex/internal/cluster"
	"anonmutex/internal/lockmgr"
	"anonmutex/lockd"
	"anonmutex/lockd/client"
	"anonmutex/lockd/wire"
)

// TestProxyForward drives the full proxied-grant lifecycle through the
// non-owner of a 2-node proxy cluster: acquire, holds, heartbeat, and
// release all answer on the client's connection to the wrong node, with
// mutual exclusion enforced at the owner throughout.
func TestProxyForward(t *testing.T) {
	nodes := startProxyCluster(t, 2)
	key := keyOwnedBy(t, nodes, "n0")

	other, err := client.DialConn(nodes[1].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if err := other.Acquire(key); err != nil {
		t.Fatalf("proxied acquire: %v", err)
	}
	if tok := other.Token(key); tok == 0 {
		t.Error("proxied grant carried no fencing token")
	}

	// Exclusion is the owner's: a direct try at n0 must lose.
	owner, err := client.DialConn(nodes[0].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	if ok, err := owner.TryAcquire(key); err != nil || ok {
		t.Fatalf("TryAcquire of proxied-held key at the owner = %v, %v; exclusion broken", ok, err)
	}

	// Grant-bound ops route through the proxy to the owner's truth.
	if held, err := other.Holds(key); err != nil || !held {
		t.Errorf("Holds through the proxy = %v, %v", held, err)
	}
	if err := other.Heartbeat(); err != nil {
		t.Errorf("Heartbeat through the proxy: %v", err)
	}

	if err := other.Release(key); err != nil {
		t.Fatalf("proxied release: %v", err)
	}
	// The release rides the stream's FIFO; a fresh forwarded try through
	// the same proxy is ordered after it and must win immediately.
	if ok, err := other.TryAcquire(key); err != nil || !ok {
		t.Fatalf("TryAcquire after proxied release = %v, %v", ok, err)
	}
	if err := other.Release(key); err != nil {
		t.Fatal(err)
	}

	fwd, fb := nodes[1].srv.ProxyCounters()
	if fwd == 0 {
		t.Error("proxy node forwarded nothing")
	}
	if fb != 0 {
		t.Errorf("proxy node recorded %d fallbacks", fb)
	}
	if fwd0, _ := nodes[0].srv.ProxyCounters(); fwd0 != 0 {
		t.Errorf("owner node forwarded %d ops; nothing should leave it", fwd0)
	}
}

// TestProxyOwnerHint checks the wire-visible half of convergence: a
// forwarded grant's response carries owner_hint naming the real owner,
// so routing clients can go direct next time.
func TestProxyOwnerHint(t *testing.T) {
	nodes := startProxyCluster(t, 2)
	key := keyOwnedBy(t, nodes, "n0")

	conn, err := net.Dial("tcp", nodes[1].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, `{"op":%q,"name":%q}`+"\n", wire.OpTryAcquire, key)
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	var resp struct {
		OK        bool   `json:"ok"`
		Acquired  bool   `json:"acquired"`
		OwnerHint bool   `json:"owner_hint"`
		Owner     string `json:"owner"`
		Epoch     uint64 `json:"epoch"`
	}
	if err := json.Unmarshal([]byte(line), &resp); err != nil {
		t.Fatalf("unparseable response %q: %v", line, err)
	}
	if !resp.OK || !resp.Acquired {
		t.Fatalf("forwarded try was not granted: %s", line)
	}
	if !resp.OwnerHint || resp.Owner != nodes[0].addr {
		t.Errorf("hint = %v owner = %q, want hint at %q", resp.OwnerHint, resp.Owner, nodes[0].addr)
	}
	if resp.Epoch == 0 {
		t.Error("owner hint carried no epoch")
	}
}

// TestProxyRoutedClientConverges pins hot-key convergence: a routing
// client that only knows the proxy's address learns the owner from the
// hint on its first forwarded acquire, and its next acquire of the key
// goes to the owner directly — the proxy forwards nothing further.
func TestProxyRoutedClientConverges(t *testing.T) {
	nodes := startProxyCluster(t, 2)
	key := keyOwnedBy(t, nodes, "n0")

	cl, err := client.Dial(client.Options{Addrs: []string{nodes[1].addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	s, err := cl.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// First trip: forwarded (the client knows only the non-owner).
	if err := s.Acquire(key); err != nil {
		t.Fatalf("first routed acquire: %v", err)
	}
	if err := s.Release(key); err != nil {
		t.Fatal(err)
	}
	fwdAfterFirst, _ := nodes[1].srv.ProxyCounters()
	if fwdAfterFirst == 0 {
		t.Fatal("first acquire was not forwarded")
	}

	// Second trip: the hint sent it direct; the proxy's counter freezes.
	if err := s.Acquire(key); err != nil {
		t.Fatalf("second routed acquire: %v", err)
	}
	if err := s.Release(key); err != nil {
		t.Fatal(err)
	}
	if fwd, _ := nodes[1].srv.ProxyCounters(); fwd != fwdAfterFirst {
		t.Errorf("proxy forwarded %d more ops after the hint; the client should have gone direct", fwd-fwdAfterFirst)
	}
}

// TestProxyCancelForwarded checks that Cancel chases an acquire blocked
// at the owner through the forwarding hop: the proxied waiter withdraws
// cleanly with Aborted instead of hanging until the holder releases.
func TestProxyCancelForwarded(t *testing.T) {
	nodes := startProxyCluster(t, 2)
	key := keyOwnedBy(t, nodes, "n0")

	holder, err := client.DialConn(nodes[0].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	if err := holder.Acquire(key); err != nil {
		t.Fatal(err)
	}

	waiter, err := client.DialConn(nodes[1].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer waiter.Close()
	acquired := make(chan error, 1)
	go func() { acquired <- waiter.Acquire(key) }()
	// Let the forwarded acquire park at the owner before chasing it.
	time.Sleep(200 * time.Millisecond)
	select {
	case err := <-acquired:
		t.Fatalf("forwarded acquire resolved early: %v", err)
	default:
	}
	if err := waiter.Cancel(key); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-acquired:
		if !errors.Is(err, client.ErrAborted) {
			t.Fatalf("cancelled forwarded acquire = %v, want ErrAborted", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel never reached the forwarded acquire")
	}
	// The holder was never disturbed.
	if held, err := holder.Holds(key); err != nil || !held {
		t.Errorf("holder lost the lock to a cancelled waiter: %v, %v", held, err)
	}
}

// severListener records the connections it accepts so a test can cut
// them all at once: the dialers see a dead socket while the listener —
// and the server behind it — stay up.
type severListener struct {
	net.Listener

	mu       sync.Mutex
	live     []net.Conn
	accepted int
}

func (l *severListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.live = append(l.live, c)
		l.accepted++
		l.mu.Unlock()
	}
	return c, err
}

// sever closes every connection accepted so far.
func (l *severListener) sever() {
	l.mu.Lock()
	live := l.live
	l.live = nil
	l.mu.Unlock()
	for _, c := range live {
		c.Close()
	}
}

func (l *severListener) acceptedCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.accepted
}

// TestProxyRedialsBrokenPeer severs the inter-node socket under two
// sessions that each hold a forwarded grant. The grants died with the
// socket at the owner, so the truthful answers are: holds reports the
// grant fenced, release still answers OK (the client no longer holds
// it either way), and the next forwarded acquire rides a freshly dialed
// socket — costing the clients at most one redirect fallback.
func TestProxyRedialsBrokenPeer(t *testing.T) {
	var ownerLn *severListener
	nodes := startClusterMode(t, 2, true, func(i int, ln net.Listener) net.Listener {
		if i != 0 {
			return ln
		}
		ownerLn = &severListener{Listener: ln}
		return ownerLn
	})
	keys := keysOwnedBy(t, nodes, "n0", 2)

	// Both sessions talk only to n1, so the one connection n0 accepts is
	// n1's forwarding socket, carrying one stream per session.
	sessions := make([]*client.Conn, 2)
	for i := range sessions {
		c, err := client.DialConn(nodes[1].addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Acquire(keys[i]); err != nil {
			t.Fatalf("proxied acquire of %s: %v", keys[i], err)
		}
		sessions[i] = c
	}
	if n := ownerLn.acceptedCount(); n != 1 {
		t.Fatalf("owner accepted %d connections before the cut, want the one forwarding socket", n)
	}
	_, fbBefore := nodes[1].srv.ProxyCounters()

	ownerLn.sever()

	if held, err := sessions[0].Holds(keys[0]); !errors.Is(err, client.ErrFenced) || held {
		t.Errorf("Holds of a grant lost with the forwarding socket = %v, %v; want ErrFenced", held, err)
	}
	if err := sessions[1].Release(keys[1]); err != nil {
		t.Errorf("Release of a grant lost with the forwarding socket = %v; want OK", err)
	}

	// A fresh forwarded acquire of each key must succeed: the owner
	// released both when the socket died, and the proxy redials. One
	// attempt may degrade to a redirect if it is what discovers the break.
	for i, c := range sessions {
		done := make(chan error, 1)
		go func() {
			err := c.Acquire(keys[i])
			var redir *client.RedirectError
			if errors.As(err, &redir) {
				err = c.Acquire(keys[i])
			}
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("forwarded acquire of %s after the cut: %v", keys[i], err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("forwarded acquire of %s hung after the cut", keys[i])
		}
		if held, err := c.Holds(keys[i]); err != nil || !held {
			t.Errorf("Holds of the re-acquired %s = %v, %v", keys[i], held, err)
		}
	}
	if n := ownerLn.acceptedCount(); n != 2 {
		t.Errorf("owner accepted %d connections in all, want 2 (the original socket and one redial)", n)
	}
	if _, fb := nodes[1].srv.ProxyCounters(); fb-fbBefore > 1 {
		t.Errorf("fallbacks rose by %d across the cut, want at most 1", fb-fbBefore)
	}
}

// deafListener accepts connections that hear nothing — every Read waits
// — until hear is closed: an owner that is slow to answer.
type deafListener struct {
	net.Listener
	hear     chan struct{}
	accepted atomic.Int32
}

type deafConn struct {
	net.Conn
	hear <-chan struct{}
}

func (l *deafListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.accepted.Add(1)
	return &deafConn{Conn: c, hear: l.hear}, nil
}

func (c *deafConn) Read(p []byte) (int, error) {
	<-c.hear
	return c.Conn.Read(p)
}

// TestProxyForwardDoesNotStallSiblings: a forward is an inter-node round
// trip, so on a client connection it belongs to the stream's goroutine,
// never to the frame reader. While one stream's acquire of a foreign key
// is outstanding at an owner that does not answer, a sibling stream of
// the same socket must still get its pings answered; a reader that
// forwarded inline would be parked in the exchange and read none of
// them.
func TestProxyForwardDoesNotStallSiblings(t *testing.T) {
	hear := make(chan struct{})
	var once sync.Once
	answer := func() { once.Do(func() { close(hear) }) }
	defer answer() // before the cluster's cleanup: a deaf connection cannot be shut down
	owner := &deafListener{hear: hear}
	nodes := startClusterMode(t, 2, true, func(i int, ln net.Listener) net.Listener {
		if i != 0 {
			return ln
		}
		owner.Listener = ln
		return owner
	})
	key := keyOwnedBy(t, nodes, "n0")

	m := dialMux(t, nodes[1].addr)
	forwarder, sibling := openStream(t, m), openStream(t, m)
	if err := sibling.Ping(); err != nil { // both streams exist before the forward starts
		t.Fatal(err)
	}
	acquired := make(chan error, 1)
	go func() { acquired <- forwarder.Acquire(key) }()
	waitFor(t, 5*time.Second, "the proxy to dial the owner", func() bool { return owner.accepted.Load() == 1 })

	pinged := make(chan error, 1)
	go func() {
		for i := 0; i < 50; i++ {
			if err := sibling.Ping(); err != nil {
				pinged <- err
				return
			}
		}
		pinged <- nil
	}()
	select {
	case err := <-pinged:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sibling stream stalled behind a forward in flight")
	}
	select {
	case err := <-acquired:
		t.Fatalf("forwarded acquire resolved while its owner was deaf: %v", err)
	default:
	}

	answer()
	select {
	case err := <-acquired:
		if err != nil {
			t.Fatalf("forwarded acquire: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("forwarded acquire never resolved once its owner answered")
	}
	if err := forwarder.Release(key); err != nil {
		t.Fatal(err)
	}
}

// aliasedPair builds the divergent-view fixture the loop-guard tests
// need: two single-server "universes" that each gossip with a dummy
// member advertising the other universe's lock address. Universe A
// believes some keys belong to a member at B's address and vice versa,
// so a key both sides disown bounces between them — exactly the views
// under which forwarding must not cycle. It returns the two servers,
// their lock addresses, and a key each side routes to the other.
func aliasedPair(t *testing.T, proxy bool) (srvA, srvB *lockd.Server, addrA, addrB, key string) {
	t.Helper()
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrA, addrB = lnA.Addr().String(), lnB.Addr().String()

	start := func(selfID, selfAddr, dummyID, dummyAddr string, ln net.Listener) (*lockd.Server, *cluster.Node) {
		mgr, err := lockmgr.New(lockmgr.Config{HandlesPerLock: 4})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { mgr.Close() })
		self, err := cluster.Start(cluster.Config{
			ID:         selfID,
			Addr:       selfAddr,
			GossipAddr: "127.0.0.1:0",
			Interval:   20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { self.Close() })
		dummy, err := cluster.Start(cluster.Config{
			ID:         dummyID,
			Addr:       dummyAddr,
			GossipAddr: "127.0.0.1:0",
			Seeds:      []string{self.GossipAddr()},
			Interval:   20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dummy.Close() })
		srv := lockd.NewServer(mgr)
		srv.LeaseTTL = time.Second
		srv.Cluster = self
		srv.Proxy = proxy
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
		// Wait until the universe has converged on both members.
		deadline := time.Now().Add(5 * time.Second)
		for {
			alive := 0
			for _, m := range self.View().Members {
				if m.State == cluster.StateAlive {
					alive++
				}
			}
			if alive == 2 {
				return srv, self
			}
			if time.Now().After(deadline) {
				t.Fatalf("universe of %s never converged", selfID)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	srvA, nodeA := start("a", addrA, "peer-b", addrB, lnA)
	srvB, nodeB := start("b", addrB, "peer-a", addrA, lnB)

	viewA, viewB := nodeA.View(), nodeB.View()
	for i := 0; i < 100000; i++ {
		name := fmt.Sprintf("bounced-%d", i)
		oa, okA := viewA.Owner(name)
		ob, okB := viewB.Owner(name)
		if okA && okB && oa.ID == "peer-b" && ob.ID == "peer-a" {
			return srvA, srvB, addrA, addrB, name
		}
	}
	t.Fatal("no key routed across both universes")
	return nil, nil, "", "", ""
}

// TestProxyLoopGuard pins the hop cap: when two proxy nodes' views each
// route a key to the other, the op is forwarded exactly once — the
// second node, seeing the op arrive over an inter-node connection,
// answers wrong_owner instead of forwarding again — and the client gets
// a redirect, never a hang or a forwarding cycle.
func TestProxyLoopGuard(t *testing.T) {
	srvA, srvB, addrA, _, key := aliasedPair(t, true)

	c, err := client.DialConn(addrA)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		_, err := c.TryAcquire(key)
		done <- err
	}()
	var acqErr error
	select {
	case acqErr = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cross-routed acquire hung: the forwarding loop was not cut")
	}
	var redir *client.RedirectError
	if !errors.As(acqErr, &redir) {
		t.Fatalf("cross-routed acquire = %v, want RedirectError", acqErr)
	}
	if redir.Owner != addrA {
		t.Errorf("redirect points at %q, want %q (b's view of the owner)", redir.Owner, addrA)
	}

	// a paid one wasted hop and fell back; b forwarded nothing.
	if fwd, fb := srvA.ProxyCounters(); fwd != 0 || fb != 1 {
		t.Errorf("a forwarded=%d fallbacks=%d, want 0/1", fwd, fb)
	}
	if fwd, _ := srvB.ProxyCounters(); fwd != 0 {
		t.Errorf("b forwarded %d ops over an inter-node connection", fwd)
	}
}

// TestRedirectHopCap pins the client-side bound the loop guard degrades
// to: with proxying off, a key both nodes disown redirects back and
// forth, and the routed client gives up with the redirect error after
// its fixed hop budget instead of following the cycle forever.
func TestRedirectHopCap(t *testing.T) {
	_, _, addrA, _, key := aliasedPair(t, false)

	cl, err := client.Dial(client.Options{Addrs: []string{addrA}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	s, err := cl.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	done := make(chan error, 1)
	go func() {
		_, err := s.TryAcquire(key)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cross-routed acquire succeeded; both views disown the key")
		}
		var redir *client.RedirectError
		if !errors.As(err, &redir) {
			t.Fatalf("hop-capped acquire = %v, want the terminal RedirectError", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("routed client followed the redirect cycle past its hop cap")
	}
}
