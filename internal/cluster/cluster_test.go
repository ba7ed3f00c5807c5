package cluster

import (
	"fmt"
	"testing"
	"time"
)

// testConfig returns fast-converging gossip timings for loopback tests.
func testConfig(id string) Config {
	return Config{
		ID:           id,
		Addr:         "127.0.0.1:7" + id, // placeholder lock-service addr
		GossipAddr:   "127.0.0.1:0",
		Interval:     10 * time.Millisecond,
		SuspectAfter: 40 * time.Millisecond,
		DeadAfter:    80 * time.Millisecond,
	}
}

// startCluster boots n nodes seeded through the first node's resolved
// gossip address, the way a static seed list is used in production.
func startCluster(t *testing.T, n int) []*Node {
	t.Helper()
	nodes := make([]*Node, 0, n)
	var seeds []string
	for i := 0; i < n; i++ {
		cfg := testConfig(fmt.Sprintf("n%d", i))
		cfg.Seeds = append([]string(nil), seeds...)
		node, err := Start(cfg)
		if err != nil {
			t.Fatalf("start node %d: %v", i, err)
		}
		t.Cleanup(func() { node.Close() })
		nodes = append(nodes, node)
		seeds = append(seeds, node.GossipAddr())
	}
	return nodes
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// countAlive reports how many members of n's view are not dead.
func countAlive(n *Node) int {
	return len(n.View().Owning())
}

func TestClusterConverges(t *testing.T) {
	nodes := startCluster(t, 3)
	for i, n := range nodes {
		i, n := i, n
		waitFor(t, 3*time.Second, fmt.Sprintf("node %d to see 3 members", i), func() bool {
			return countAlive(n) == 3
		})
	}
	// Every node resolves every key to the same owner.
	for _, key := range []string{"a", "b", "k-17", "user/42"} {
		owner0, ok := nodes[0].Owner(key)
		if !ok {
			t.Fatalf("no owner for %q", key)
		}
		for i, n := range nodes[1:] {
			owner, _ := n.Owner(key)
			if owner.ID != owner0.ID {
				t.Fatalf("node %d owner for %q = %s, node 0 says %s", i+1, key, owner.ID, owner0.ID)
			}
		}
	}
}

func TestClusterDeathMovesKeysAndBumpsEpoch(t *testing.T) {
	nodes := startCluster(t, 3)
	for _, n := range nodes {
		n := n
		waitFor(t, 3*time.Second, "convergence", func() bool { return countAlive(n) == 3 })
	}
	epochBefore := nodes[0].Epoch()

	// Find keys owned by the victim so we can watch them move.
	victim := nodes[2]
	victimID := victim.Self().ID
	var victimKeys []string
	for i := 0; len(victimKeys) < 3 && i < 1000; i++ {
		key := fmt.Sprintf("key-%d", i)
		if owner, _ := nodes[0].Owner(key); owner.ID == victimID {
			victimKeys = append(victimKeys, key)
		}
	}
	if len(victimKeys) < 3 {
		t.Fatalf("rendezvous hashing gave %s fewer than 3 of 1000 keys", victimID)
	}

	victim.Close() // silent crash: no goodbye message
	for _, n := range nodes[:2] {
		n := n
		waitFor(t, 3*time.Second, "death detection", func() bool { return countAlive(n) == 2 })
	}
	if e := nodes[0].Epoch(); e <= epochBefore {
		t.Fatalf("epoch did not advance across a death: %d -> %d", epochBefore, e)
	}
	// The dead node's keys moved to survivors — and to the same
	// survivor everywhere; keys the survivors already owned stayed put.
	for _, key := range victimKeys {
		o0, _ := nodes[0].Owner(key)
		o1, _ := nodes[1].Owner(key)
		if o0.ID == victimID {
			t.Fatalf("key %q still owned by dead %s", key, victimID)
		}
		if o0.ID != o1.ID {
			t.Fatalf("survivors disagree on %q: %s vs %s", key, o0.ID, o1.ID)
		}
	}
}

func TestClusterOnChangeFiresOnDeath(t *testing.T) {
	nodes := startCluster(t, 2)
	for _, n := range nodes {
		n := n
		waitFor(t, 3*time.Second, "convergence", func() bool { return countAlive(n) == 2 })
	}
	changes := make(chan View, 16)
	nodes[0].OnChange(func(v View) {
		select {
		case changes <- v:
		default:
		}
	})
	nodes[1].Close()
	select {
	case v := <-changes:
		if len(v.Owning()) != 1 {
			t.Fatalf("change view has %d owning members, want 1", len(v.Owning()))
		}
	case <-time.After(3 * time.Second):
		t.Fatal("OnChange never fired after a member died")
	}
}

func TestRendezvousDeterministicAndBalanced(t *testing.T) {
	v := View{Members: []Member{
		{ID: "a", State: StateAlive},
		{ID: "b", State: StateAlive},
		{ID: "c", State: StateSuspect}, // suspects keep their keys
		{ID: "d", State: StateDead},    // the dead do not
	}}
	counts := map[string]int{}
	for i := 0; i < 3000; i++ {
		key := fmt.Sprintf("key-%d", i)
		o1, ok := v.Owner(key)
		if !ok {
			t.Fatalf("no owner for %q", key)
		}
		o2, _ := v.Owner(key)
		if o1.ID != o2.ID {
			t.Fatalf("owner of %q not deterministic: %s vs %s", key, o1.ID, o2.ID)
		}
		if o1.ID == "d" {
			t.Fatalf("dead member owns %q", key)
		}
		counts[o1.ID]++
	}
	// HRW should spread keys roughly evenly over the three eligible
	// members; a worst member below half its fair share would mean the
	// hash is broken, not merely unlucky.
	for _, id := range []string{"a", "b", "c"} {
		if counts[id] < 500 {
			t.Fatalf("member %s owns only %d of 3000 keys: %v", id, counts[id], counts)
		}
	}
}

// TestRendezvousBalancesNearIdenticalIDs pins the ownership skew that
// plain FNV-1a scores had: ids differing in one character gave all 512
// keys to p0 among p0,p1,p2 and split n0,n1,n2 400/112/0. Each member of
// three must own a third of the keys, within 15 %.
func TestRendezvousBalancesNearIdenticalIDs(t *testing.T) {
	const keys = 512
	for _, ids := range [][]string{{"p0", "p1", "p2"}, {"n0", "n1", "n2"}} {
		v := View{}
		for _, id := range ids {
			v.Members = append(v.Members, Member{ID: id, State: StateAlive})
		}
		counts := map[string]int{}
		for i := 0; i < keys; i++ {
			o, ok := v.Owner(fmt.Sprintf("key-%04d", i))
			if !ok {
				t.Fatal("no owner")
			}
			counts[o.ID]++
		}
		for _, id := range ids {
			if c := float64(counts[id]); c < keys/3.0*0.85 || c > keys/3.0*1.15 {
				t.Errorf("members %v: %s owns %d of %d keys, want %d ± 15 %%: %v",
					ids, id, counts[id], keys, keys/3, counts)
			}
		}
	}
}

func TestRendezvousHashAllocatesNothing(t *testing.T) {
	if a := testing.AllocsPerRun(100, func() { rendezvousHash("n0", "key-0001") }); a != 0 {
		t.Fatalf("rendezvousHash: %.1f allocs per call, want 0", a)
	}
}

func TestTokenFloorOrdersEpochs(t *testing.T) {
	if TokenFloor(1) <= TokenFloor(0) || TokenFloor(7) <= TokenFloor(6) {
		t.Fatal("token floors not strictly increasing in epoch")
	}
	// A grant counter seeded at floor E and bumped per grant stays
	// below floor E+1 for 2^32 grants.
	if TokenFloor(3)+1<<31 >= TokenFloor(4) {
		t.Fatal("epoch stride too small")
	}
}

func TestStartValidation(t *testing.T) {
	if _, err := Start(Config{Addr: "x", GossipAddr: "127.0.0.1:0"}); err == nil {
		t.Fatal("Start accepted an empty ID")
	}
	if _, err := Start(Config{ID: "a", GossipAddr: "127.0.0.1:0"}); err == nil {
		t.Fatal("Start accepted an empty Addr")
	}
	cfg := testConfig("a")
	cfg.SuspectAfter = 100 * time.Millisecond
	cfg.DeadAfter = 50 * time.Millisecond
	if _, err := Start(cfg); err == nil {
		t.Fatal("Start accepted DeadAfter <= SuspectAfter")
	}
}
