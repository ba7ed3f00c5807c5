package lockd_test

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"strings"
	"testing"
	"time"

	"anonmutex/internal/cluster"
	"anonmutex/internal/lockmgr"
	"anonmutex/lockd"
	"anonmutex/lockd/client"
	"anonmutex/lockd/wire"
)

// clusterNode is one member of an in-test lockd cluster.
type clusterNode struct {
	addr string
	srv  *lockd.Server
	node *cluster.Node
	mgr  *lockmgr.Manager
	ln   net.Listener
}

// startCluster brings up n clustered lockd servers on loopback with fast
// gossip timings, waits for every member to see every other alive, and
// tears the whole thing down with the test.
func startCluster(t testing.TB, n int) []*clusterNode {
	t.Helper()
	return startClusterMode(t, n, false, nil)
}

// startProxyCluster is startCluster with proxy-mode forwarding on at
// every member.
func startProxyCluster(t testing.TB, n int) []*clusterNode {
	t.Helper()
	return startClusterMode(t, n, true, nil)
}

// startClusterMode is the shared bring-up. wrap, when non-nil, wraps
// member i's lock-service listener before Serve sees it (the address the
// member advertises stays the real one).
func startClusterMode(t testing.TB, n int, proxy bool, wrap func(i int, ln net.Listener) net.Listener) []*clusterNode {
	t.Helper()
	nodes := make([]*clusterNode, 0, n)
	var seeds []string
	for i := 0; i < n; i++ {
		mgr, err := lockmgr.New(lockmgr.Config{HandlesPerLock: 4})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cn, err := cluster.Start(cluster.Config{
			ID:           fmt.Sprintf("n%d", i),
			Addr:         ln.Addr().String(),
			GossipAddr:   "127.0.0.1:0",
			Seeds:        seeds,
			Interval:     20 * time.Millisecond,
			SuspectAfter: 120 * time.Millisecond,
			DeadAfter:    240 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, cn.GossipAddr())
		srv := lockd.NewServer(mgr)
		srv.LeaseTTL = time.Second
		srv.Cluster = cn
		srv.Proxy = proxy
		if wrap != nil {
			ln = wrap(i, ln)
		}
		serveErr := make(chan error, 1)
		go func() { serveErr <- srv.Serve(ln) }()
		node := &clusterNode{addr: ln.Addr().String(), srv: srv, node: cn, mgr: mgr, ln: ln}
		nodes = append(nodes, node)
		t.Cleanup(func() {
			node.stop(t)
			if err := <-serveErr; err != nil {
				t.Errorf("Serve: %v", err)
			}
			mgr.Close()
		})
	}
	// Convergence: every node sees n alive members.
	deadline := time.Now().Add(5 * time.Second)
	for _, nd := range nodes {
		for {
			alive := 0
			for _, m := range nd.node.View().Members {
				if m.State == cluster.StateAlive {
					alive++
				}
			}
			if alive == n {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("cluster did not converge: node %s sees %d/%d alive", nd.node.Self().ID, alive, n)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return nodes
}

// stop shuts one node down; killing it from the cluster's point of view
// (Close is silent — peers find out via the failure detector).
func (cn *clusterNode) stop(t testing.TB) {
	t.Helper()
	if cn.node != nil {
		cn.node.Close()
		cn.node = nil
	}
	if cn.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := cn.srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		cn.srv = nil
	}
}

// keyOwnedBy finds a lock name the given member owns under the current
// view (every member owns some key within a few dozen candidates).
func keyOwnedBy(t testing.TB, nodes []*clusterNode, id string) string {
	t.Helper()
	return keysOwnedBy(t, nodes, id, 1)[0]
}

// keysOwnedBy finds n distinct lock names the given member owns.
func keysOwnedBy(t testing.TB, nodes []*clusterNode, id string, n int) []string {
	t.Helper()
	view := nodes[0].node.View()
	var keys []string
	for i := 0; i < 10000 && len(keys) < n; i++ {
		name := fmt.Sprintf("key-%d", i)
		if owner, ok := view.Owner(name); ok && owner.ID == id {
			keys = append(keys, name)
		}
	}
	if len(keys) < n {
		t.Fatalf("only %d of %d keys hashed to member %s", len(keys), n, id)
	}
	return keys
}

// TestClusterServeNeedsLeases pins that a clustered server without
// leases refuses to serve: handoff safety depends on fencing tokens.
func TestClusterServeNeedsLeases(t *testing.T) {
	mgr, err := lockmgr.New(lockmgr.Config{HandlesPerLock: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	cn, err := cluster.Start(cluster.Config{ID: "solo", Addr: "127.0.0.1:1", GossipAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := lockd.NewServer(mgr)
	srv.Cluster = cn
	if err := srv.Serve(ln); err == nil || !strings.Contains(err.Error(), "LeaseTTL") {
		t.Fatalf("Serve without leases = %v, want a LeaseTTL error", err)
	}
}

// TestClusterRedirect exercises the redirect through the Go client: the owning node grants, the other node redirects to it.
func TestClusterRedirect(t *testing.T) {
	nodes := startCluster(t, 2)
	key := keyOwnedBy(t, nodes, "n0")

	owner, err := client.DialConn(nodes[0].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	if err := owner.Acquire(key); err != nil {
		t.Fatalf("acquire on the owning node: %v", err)
	}
	if tok := owner.Token(key); tok == 0 {
		t.Error("grant on a clustered server carried no fencing token")
	}
	if err := owner.Release(key); err != nil {
		t.Fatal(err)
	}

	other, err := client.DialConn(nodes[1].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	err = other.Acquire(key)
	var redir *client.RedirectError
	if !errors.As(err, &redir) {
		t.Fatalf("acquire on the wrong node = %v, want RedirectError", err)
	}
	if redir.Owner != nodes[0].addr {
		t.Errorf("redirect points at %q, want %q", redir.Owner, nodes[0].addr)
	}
	if redir.Epoch == 0 {
		t.Error("redirect carried no epoch")
	}
	// Grant-bound ops stay local: the wrong node answers about its own
	// state instead of redirecting, so holds on an unheld key is false.
	if held, err := other.Holds(key); err != nil || held {
		t.Errorf("Holds on non-owner = %v, %v", held, err)
	}
}

// TestClusterRoutedClient drives the unified routed client against the
// cluster: acquires land on owners transparently, tokens flow, and
// mutual exclusion holds across sessions routed independently.
func TestClusterRoutedClient(t *testing.T) {
	nodes := startCluster(t, 2)
	cl, err := client.Dial(client.Options{Addrs: []string{nodes[0].addr, nodes[1].addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	s1, err := cl.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s2, err := cl.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	for _, key := range []string{keyOwnedBy(t, nodes, "n0"), keyOwnedBy(t, nodes, "n1")} {
		if err := s1.Acquire(key); err != nil {
			t.Fatalf("routed acquire of %s: %v", key, err)
		}
		if tok := s1.Token(key); tok == 0 {
			t.Errorf("routed grant on %s carried no token", key)
		}
		if ok, err := s2.TryAcquire(key); err != nil || ok {
			t.Errorf("TryAcquire of held %s = %v, %v; exclusion broken", key, ok, err)
		}
		if held, err := s1.Holds(key); err != nil || !held {
			t.Errorf("Holds(%s) = %v, %v", key, held, err)
		}
		if err := s1.Release(key); err != nil {
			t.Fatal(err)
		}
		if ok, err := s2.TryAcquire(key); err != nil || !ok {
			t.Fatalf("TryAcquire of released %s = %v, %v", key, ok, err)
		}
		if err := s2.Release(key); err != nil {
			t.Fatal(err)
		}
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Violations != 0 {
		t.Errorf("violations = %d", st.Violations)
	}
}

// TestClusterOldJSONClient sends a raw newline-JSON acquire — what a
// pre-cluster JSON client emits — to the wrong node and checks the
// response stays parseable and explicit for a reader that ignores the
// redirect fields.
func TestClusterOldJSONClient(t *testing.T) {
	nodes := startCluster(t, 2)
	awayKey := keyOwnedBy(t, nodes, "n1")

	conn, err := net.Dial("tcp", nodes[0].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, `{"op":%q,"name":%q}`+"\n", wire.OpTryAcquire, awayKey)
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	var resp struct {
		OK         bool   `json:"ok"`
		Err        string `json:"err"`
		WrongOwner bool   `json:"wrong_owner"`
		Owner      string `json:"owner"`
	}
	if err := json.Unmarshal([]byte(line), &resp); err != nil {
		t.Fatalf("unparseable response %q: %v", line, err)
	}
	if resp.OK {
		t.Fatal("foreign-key acquire succeeded on the wrong node")
	}
	if resp.Err == "" {
		t.Fatal("wrong-owner rejection without error text")
	}
	if !resp.WrongOwner || resp.Owner != nodes[1].addr {
		t.Errorf("redirect fields = %+v, want owner %s", resp, nodes[1].addr)
	}
}

// TestClusterBlockedAcquireRedirectsAfterHandoff pins the
// blocked-acquire handoff race: an acquire that parks behind a holder
// on the key's owner, and only unblocks because a membership change
// moved the key away (the handoff sweep revoked the holder), must
// answer a redirect to the new owner — not a grant. A grant here would
// attach after the sweep already scanned, leaving live grants for one
// key on two nodes with neither fencing token outranking the other.
func TestClusterBlockedAcquireRedirectsAfterHandoff(t *testing.T) {
	mgr, err := lockmgr.New(lockmgr.Config{HandlesPerLock: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ca, err := cluster.Start(cluster.Config{
		ID:           "a",
		Addr:         ln.Addr().String(),
		GossipAddr:   "127.0.0.1:0",
		Interval:     20 * time.Millisecond,
		SuspectAfter: 120 * time.Millisecond,
		DeadAfter:    240 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := lockd.NewServer(mgr)
	// TTL far beyond the test: only the handoff sweep can free the key.
	srv.LeaseTTL = time.Minute
	srv.Cluster = ca
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	defer func() {
		ca.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	// A key that moves to b the moment b joins the two-member view.
	two := cluster.View{Members: []cluster.Member{{ID: "a"}, {ID: "b"}}}
	key := ""
	for i := 0; i < 10000 && key == ""; i++ {
		name := fmt.Sprintf("moved-%d", i)
		if owner, ok := two.Owner(name); ok && owner.ID == "b" {
			key = name
		}
	}
	if key == "" {
		t.Fatal("no key hashed to the joining member")
	}

	holder, err := client.DialConn(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	if err := holder.Acquire(key); err != nil {
		t.Fatal(err)
	}

	waiter, err := client.DialConn(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer waiter.Close()
	acquired := make(chan error, 1)
	go func() { acquired <- waiter.Acquire(key) }()
	// The waiter must actually be parked server-side before b joins, or
	// the pre-acquire ownership check would answer the redirect and
	// never exercise the post-acquire one. The pre-check runs within one
	// round trip of the request hitting the server, so after this settle
	// window the waiter is past it and blocked on the held lock.
	time.Sleep(300 * time.Millisecond)
	select {
	case err := <-acquired:
		t.Fatalf("waiter resolved before the handoff: %v", err)
	default:
	}

	// b joins cluster-only: the redirect names its lock address; no
	// lockd server needs to answer there for this test.
	const bAddr = "127.0.0.1:49999"
	cb, err := cluster.Start(cluster.Config{
		ID:         "b",
		Addr:       bAddr,
		GossipAddr: "127.0.0.1:0",
		Seeds:      []string{ca.GossipAddr()},
		Interval:   20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Close()

	select {
	case err := <-acquired:
		var redir *client.RedirectError
		if !errors.As(err, &redir) {
			t.Fatalf("blocked acquire after the handoff = %v, want RedirectError", err)
		}
		if redir.Owner != bAddr {
			t.Errorf("redirect points at %q, want %q", redir.Owner, bAddr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked acquire never resolved after the handoff revoked its holder")
	}
	// The holder was revoked by the sweep, not released: its own release
	// is fenced, and the lock manager records no violation.
	if err := holder.Release(key); !errors.Is(err, client.ErrFenced) {
		t.Errorf("holder release after handoff = %v, want ErrFenced", err)
	}
	if v := mgr.Violations(); v != 0 {
		t.Errorf("violations = %d", v)
	}
}

// TestClusterReleasePinSurvivesDialFailure pins the routed client's
// release routing: when the node that granted a key dies, a failed
// Release must not forget which address held the grant — a retry keeps
// routing there (and keeps failing as unavailable) instead of asking a
// surviving stranger that would answer "does not hold" while the grant
// waits out its TTL.
func TestClusterReleasePinSurvivesDialFailure(t *testing.T) {
	nodes := startCluster(t, 2)
	addrs := []string{nodes[0].addr, nodes[1].addr}

	// The key must be owned by n1 (so the grant lives there) AND have
	// its client-side fallback guess also land on n1 (so the acquire
	// goes direct and teaches the ownership cache nothing) — then, with
	// no grant pin, a retried release would fall back to n0 once n1 is
	// quarantined, and n0 would answer "does not hold". The guess
	// replicates the client's rendezvous hash over addresses.
	guess := func(name string) string {
		best, bestScore := "", uint64(0)
		for _, addr := range addrs {
			h := fnv.New64a()
			h.Write([]byte(addr))
			h.Write([]byte{0})
			h.Write([]byte(name))
			if score := h.Sum64(); best == "" || score > bestScore {
				best, bestScore = addr, score
			}
		}
		return best
	}
	view := nodes[0].node.View()
	key := ""
	for i := 0; i < 10000 && key == ""; i++ {
		name := fmt.Sprintf("pinned-%d", i)
		if owner, ok := view.Owner(name); ok && owner.ID == "n1" && guess(name) == nodes[1].addr {
			key = name
		}
	}
	if key == "" {
		t.Fatal("no key both owned by and guessed at n1")
	}

	cl, err := client.Dial(client.Options{Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	s, err := cl.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Acquire(key); err != nil {
		t.Fatal(err)
	}

	nodes[1].stop(t)

	// Every retry must keep routing to the granting (dead) node: losing
	// the pin would send a retry to n0, whose "does not hold" answer
	// does not wrap ErrUnavailable.
	for attempt := 0; attempt < 3; attempt++ {
		err := s.Release(key)
		if err == nil {
			t.Fatalf("release attempt %d against the dead granting node succeeded", attempt)
		}
		if !errors.Is(err, client.ErrUnavailable) {
			t.Fatalf("release attempt %d = %v, want ErrUnavailable (a retry must keep routing to the granting node)", attempt, err)
		}
	}
}

// TestClusterFailoverTokens kills a key's owner and checks the handoff
// invariant: the surviving node grants the key again within the failure
// detector's budget, with a strictly larger fencing token under a newer
// epoch.
func TestClusterFailoverTokens(t *testing.T) {
	nodes := startCluster(t, 2)
	key := keyOwnedBy(t, nodes, "n1")
	epochBefore := nodes[0].node.Epoch()

	c1, err := client.DialConn(nodes[1].addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Acquire(key); err != nil {
		t.Fatal(err)
	}
	tokenBefore := c1.Token(key)
	if tokenBefore == 0 {
		t.Fatal("no fencing token before failover")
	}
	if err := c1.Release(key); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	// Kill the owner: cluster Close is silent (a crash, as peers see it).
	nodes[1].stop(t)

	// The survivor must take the key over within the detector's dead
	// timeout plus gossip slack, and grant it under a larger token.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if owner, ok := nodes[0].node.Owner(key); ok && owner.ID == "n0" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("ownership never moved to the survivor")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if e := nodes[0].node.Epoch(); e <= epochBefore {
		t.Fatalf("epoch did not advance across the death: %d -> %d", epochBefore, e)
	}

	c0, err := client.DialConn(nodes[0].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	if ok, err := c0.TryAcquire(key); err != nil || !ok {
		t.Fatalf("survivor did not grant the moved key: %v, %v", ok, err)
	}
	tokenAfter := c0.Token(key)
	if tokenAfter <= tokenBefore {
		t.Fatalf("token did not advance across failover: %d -> %d", tokenBefore, tokenAfter)
	}
	if floor := cluster.TokenFloor(nodes[0].node.Epoch()); tokenAfter <= floor-1<<32 {
		t.Errorf("post-failover token %d below the previous epoch band", tokenAfter)
	}
}
