// Package cluster is lockd's membership and key-ownership layer: a
// lightweight UDP heartbeat gossip over a static seed list, and
// rendezvous (highest-random-weight) hashing of the live membership
// view to decide which node owns each lock name.
//
// Every node keeps a full membership table — lock clusters are small
// (single digits of nodes serving millions of clients), so gossiping
// the whole table every interval is cheap and makes convergence easy
// to reason about. Each entry carries an (incarnation, beat) pair:
// beat is the member's heartbeat counter, bumped every interval it is
// alive; incarnation orders restarts of the same node id (a restarted
// node starts with a fresh, larger incarnation, so its counter never
// has to race its past self). A member whose pair stops advancing is
// marked suspect after SuspectAfter and dead after DeadAfter; a newer
// pair revives it.
//
// Ownership is computed over the members not known dead — a suspect
// node keeps its keys, so a gossip hiccup does not stampede ownership
// back and forth; only a death (or a join) moves keys. Each change to
// that owning set bumps the view's epoch, a Lamport-style counter
// (merged by max, bumped on local change) that totally orders
// ownership regimes cluster-wide. The epoch is what makes lease
// handoff safe: a node seeds its fencing-token counter to
// TokenFloor(epoch), so grants issued by a key's new owner carry
// strictly larger tokens than anything its previous owner issued under
// an earlier epoch — a fenced holder can never be resurrected by
// failover. (See lockd's DESIGN.md, section "Cluster".)
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"anonmutex/internal/xrand"
)

// State is one member's liveness as seen by this node.
type State uint8

const (
	// StateAlive: the member's heartbeat is advancing.
	StateAlive State = iota
	// StateSuspect: no advance for SuspectAfter; the member keeps its
	// keys (ownership does not flap on a gossip hiccup) but is on the
	// clock toward dead.
	StateSuspect
	// StateDead: no advance for DeadAfter; the member is removed from
	// the owning set and its keys move, bumping the epoch.
	StateDead
)

func (s State) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Member is one node of the cluster.
type Member struct {
	// ID is the node's stable identity (unique per cluster).
	ID string
	// Addr is the node's lock-service address — what redirects carry
	// and clients dial.
	Addr string
	// GossipAddr is the node's membership UDP address.
	GossipAddr string

	State       State
	Incarnation uint64
	Beat        uint64
	// Epoch is the highest membership epoch this member is known to
	// have reached — its own claim, relayed by gossip. Local epoch
	// bumps jump past the highest claim in the table, so a new owner's
	// token floor clears every band a dead member could have granted
	// under, even when epoch counters had diverged at the time of
	// death.
	Epoch uint64
}

// Config configures one node's membership layer.
type Config struct {
	// ID is this node's identity; required, unique per cluster.
	ID string
	// Addr is this node's advertised lock-service address; required.
	Addr string
	// GossipAddr is the UDP address to listen on for gossip
	// ("127.0.0.1:0" picks a free port; see Node.GossipAddr for the
	// resolved one). Required.
	GossipAddr string
	// Seeds are peer gossip addresses to introduce ourselves to. A
	// seed need not be alive at start; it is retried every interval
	// until gossip absorbs it into the member table.
	Seeds []string

	// Interval is the heartbeat/gossip period (default 100ms).
	Interval time.Duration
	// SuspectAfter marks a member suspect after this long without
	// heartbeat progress (default 4×Interval).
	SuspectAfter time.Duration
	// DeadAfter marks a member dead — moving its keys — after this
	// long without progress (default 8×Interval; must exceed
	// SuspectAfter).
	DeadAfter time.Duration
	// Fanout is how many peers each gossip round targets (default 3).
	Fanout int

	// Logf, when non-nil, receives membership transitions (joins,
	// suspicions, deaths, epoch bumps).
	Logf func(format string, args ...any)
}

// View is an immutable snapshot of the membership: the epoch, this
// node, and every known member (sorted by ID, dead ones included).
type View struct {
	Epoch   uint64
	Self    Member
	Members []Member
}

// Owning reports the members eligible to own keys under this view:
// everyone not known dead (suspects keep their keys).
func (v View) Owning() []Member {
	owning := make([]Member, 0, len(v.Members))
	for _, m := range v.Members {
		if m.State != StateDead {
			owning = append(owning, m)
		}
	}
	return owning
}

// Owner resolves the key's owning member under this view by rendezvous
// hashing: the highest hash of (member id, key) among non-dead members
// wins, ties broken by id. ok is false only if every member is dead —
// impossible in practice, since the local node is always in the view.
func (v View) Owner(key string) (Member, bool) {
	var best Member
	var bestHash uint64
	found := false
	for _, m := range v.Members {
		if m.State == StateDead {
			continue
		}
		h := rendezvousHash(m.ID, key)
		if !found || h > bestHash || (h == bestHash && m.ID < best.ID) {
			best, bestHash, found = m, h, true
		}
	}
	return best, found
}

// rendezvousHash scores one (member, key) pair: FNV-1a over the member
// id, a separator that cannot appear inside it, then the key, run through
// the SplitMix64 finalizer. FNV-1a alone is not a rendezvous score: ids
// that differ in one late byte (p0, p1, p2) leave sums that differ only
// in how the key bytes multiply a near-equal state, and one member wins
// nearly every key. The finalizer spreads every input bit over the word.
func rendezvousHash(id, key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	h *= 1099511628211 // the separator: h ^= 0 leaves h as it is
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return xrand.Mix64(h)
}

// TokenFloor is the fencing-token floor a node seeds its lease counter
// to under a membership epoch: tokens granted under epoch E live in
// [E<<32, (E+1)<<32), so any grant issued under a later epoch compares
// strictly greater than every grant of an earlier one. 2^32 grants per
// key per epoch is the stride; a node approaching it would have served
// billions of acquires between membership changes.
func TokenFloor(epoch uint64) uint64 { return epoch << 32 }

// Node is one running membership participant. Create with Start; stop
// with Close.
type Node struct {
	cfg  Config
	conn *net.UDPConn

	mu      sync.Mutex
	self    Member
	epoch   uint64
	members map[string]*memberState
	watch   []func(View)
	rng     *rand.Rand
	closed  bool

	done chan struct{}
	wg   sync.WaitGroup
}

// memberState is a remote member plus the local failure-detector clock.
type memberState struct {
	Member
	lastAdvance time.Time
}

// Start validates cfg, binds the gossip socket, and begins
// heartbeating. The node is immediately a one-member cluster of
// itself; seeds are courted every interval until gossip merges them
// in.
func Start(cfg Config) (*Node, error) {
	if cfg.ID == "" {
		return nil, errors.New("cluster: Config.ID is required")
	}
	if cfg.Addr == "" {
		return nil, errors.New("cluster: Config.Addr is required")
	}
	if cfg.GossipAddr == "" {
		return nil, errors.New("cluster: Config.GossipAddr is required")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 100 * time.Millisecond
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 4 * cfg.Interval
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = 8 * cfg.Interval
	}
	if cfg.DeadAfter <= cfg.SuspectAfter {
		return nil, fmt.Errorf("cluster: DeadAfter %v must exceed SuspectAfter %v", cfg.DeadAfter, cfg.SuspectAfter)
	}
	if cfg.Fanout <= 0 {
		cfg.Fanout = 3
	}
	laddr, err := net.ResolveUDPAddr("udp", cfg.GossipAddr)
	if err != nil {
		return nil, fmt.Errorf("cluster: gossip address %s: %w", cfg.GossipAddr, err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listening on %s: %w", cfg.GossipAddr, err)
	}
	n := &Node{
		cfg:  cfg,
		conn: conn,
		self: Member{
			ID:         cfg.ID,
			Addr:       cfg.Addr,
			GossipAddr: conn.LocalAddr().String(),
			State:      StateAlive,
			// Wall-clock incarnation: a restarted node resumes with a
			// strictly larger incarnation than any heartbeat its past
			// self gossiped, so peers adopt the new identity at once.
			Incarnation: uint64(time.Now().UnixNano()),
			Epoch:       1,
		},
		epoch:   1,
		members: make(map[string]*memberState),
		rng:     rand.New(rand.NewSource(time.Now().UnixNano())),
		done:    make(chan struct{}),
	}
	n.wg.Add(2)
	go n.recvLoop()
	go n.gossipLoop()
	return n, nil
}

// Self is this node's own member entry.
func (n *Node) Self() Member {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.self
}

// GossipAddr is the resolved UDP address the node listens on.
func (n *Node) GossipAddr() string {
	return n.conn.LocalAddr().String()
}

// Epoch is the current membership epoch.
func (n *Node) Epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
}

// View snapshots the membership.
func (n *Node) View() View {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.viewLocked()
}

func (n *Node) viewLocked() View {
	members := make([]Member, 0, len(n.members)+1)
	members = append(members, n.self)
	for _, m := range n.members {
		members = append(members, m.Member)
	}
	sort.Slice(members, func(i, j int) bool { return members[i].ID < members[j].ID })
	return View{Epoch: n.epoch, Self: n.self, Members: members}
}

// Owner resolves key's owner under the current view.
func (n *Node) Owner(key string) (Member, bool) {
	return n.View().Owner(key)
}

// OnChange registers fn to be called — serially, from the node's
// gossip goroutines — with the new view after every epoch bump (that
// is, after every change to the owning set). Callbacks must not block
// for long and must not call Close.
func (n *Node) OnChange(fn func(View)) {
	n.mu.Lock()
	n.watch = append(n.watch, fn)
	n.mu.Unlock()
}

// Close stops gossiping and releases the socket. Peers will see this
// node go silent and, after DeadAfter, dead — Close is deliberately a
// crash from the cluster's point of view; there is no goodbye message,
// so the planned and unplanned leave paths are the same tested path.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()
	close(n.done)
	err := n.conn.Close()
	n.wg.Wait()
	return err
}

// gossipLoop drives the periodic work: bump our heartbeat, run the
// failure detector, and push our view at Fanout random peers plus any
// seed we have not absorbed yet.
func (n *Node) gossipLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-n.done:
			return
		case now := <-t.C:
			n.tick(now)
		}
	}
}

func (n *Node) tick(now time.Time) {
	n.mu.Lock()
	n.self.Beat++
	changed := n.detectLocked(now)
	if changed {
		n.setEpochLocked(n.maxKnownEpochLocked() + 1)
	}
	packet := n.encodeViewLocked()
	targets := n.targetsLocked()
	watchers, view := n.watchersLocked(changed)
	n.mu.Unlock()

	for _, w := range watchers {
		w(view)
	}
	for _, addr := range targets {
		n.send(addr, packet)
	}
}

// setEpochLocked moves the epoch, keeping our own gossip claim in step.
func (n *Node) setEpochLocked(e uint64) {
	n.epoch = e
	n.self.Epoch = e
}

// maxKnownEpochLocked is the highest epoch any member is known to have
// reached — dead members included, which is the point: a bump past it
// puts the new epoch's token band above anything the dead member could
// have granted under.
func (n *Node) maxKnownEpochLocked() uint64 {
	e := n.epoch
	for _, m := range n.members {
		if m.Epoch > e {
			e = m.Epoch
		}
	}
	return e
}

// detectLocked advances the failure detector, reporting whether the
// owning set changed (some member crossed into or out of dead).
func (n *Node) detectLocked(now time.Time) (changed bool) {
	for _, m := range n.members {
		if m.lastAdvance.IsZero() {
			m.lastAdvance = now
			continue
		}
		idle := now.Sub(m.lastAdvance)
		switch {
		case m.State != StateDead && idle >= n.cfg.DeadAfter:
			m.State = StateDead
			changed = true
			n.logf("cluster %s: member %s (%s) dead after %v silent", n.cfg.ID, m.ID, m.Addr, idle)
		case m.State == StateAlive && idle >= n.cfg.SuspectAfter:
			m.State = StateSuspect
			n.logf("cluster %s: member %s (%s) suspect after %v silent", n.cfg.ID, m.ID, m.Addr, idle)
		}
	}
	return changed
}

// targetsLocked picks this round's gossip targets: every seed not yet
// in the member table (so a cluster can bootstrap through one
// address), then up to Fanout random known peers, dead ones excluded.
func (n *Node) targetsLocked() []string {
	known := make(map[string]bool, len(n.members)+1)
	known[n.self.GossipAddr] = true
	peers := make([]string, 0, len(n.members))
	for _, m := range n.members {
		known[m.GossipAddr] = true
		if m.State != StateDead {
			peers = append(peers, m.GossipAddr)
		}
	}
	var targets []string
	for _, s := range n.cfg.Seeds {
		if !known[s] {
			targets = append(targets, s)
		}
	}
	n.rng.Shuffle(len(peers), func(i, j int) { peers[i], peers[j] = peers[j], peers[i] })
	if len(peers) > n.cfg.Fanout {
		peers = peers[:n.cfg.Fanout]
	}
	return append(targets, peers...)
}

// watchersLocked snapshots the callback list and view when the owning
// set changed this tick (nil otherwise); callbacks run outside the
// lock.
func (n *Node) watchersLocked(changed bool) ([]func(View), View) {
	if !changed || len(n.watch) == 0 {
		return nil, View{}
	}
	watchers := make([]func(View), len(n.watch))
	copy(watchers, n.watch)
	return watchers, n.viewLocked()
}

func (n *Node) send(addr string, packet []byte) {
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return
	}
	n.conn.WriteToUDP(packet, raddr)
}

// recvLoop merges incoming views until the socket closes.
func (n *Node) recvLoop() {
	defer n.wg.Done()
	buf := make([]byte, 64<<10)
	for {
		k, _, err := n.conn.ReadFromUDP(buf)
		if err != nil {
			return // Close tore the socket down (or it is unusable)
		}
		remoteEpoch, remote, err := decodeView(buf[:k])
		if err != nil {
			continue // not ours; gossip is tolerant of garbage
		}
		n.merge(remoteEpoch, remote)
	}
}

// merge folds one received view into the local table: per member, the
// larger (incarnation, beat) pair wins and counts as heartbeat
// progress; at an equal pair, the worse state sticks (dead > suspect >
// alive), so a death observed anywhere propagates. Epochs merge by
// max; any change to the owning set bumps the result once more and
// notifies watchers.
func (n *Node) merge(remoteEpoch uint64, remote []Member) {
	now := time.Now()
	n.mu.Lock()
	changed := false
	prevEpoch := n.epoch
	epoch := max(n.epoch, remoteEpoch)
	for _, r := range remote {
		if r.ID == n.self.ID {
			// Gossip about ourselves: refute anything but alive by
			// bumping our incarnation past the rumor's — peers adopt
			// the larger pair and we stay in the owning set.
			if r.State != StateAlive && r.Incarnation >= n.self.Incarnation {
				n.self.Incarnation = r.Incarnation + 1
				n.logf("cluster %s: refuting %s rumor (incarnation %d)", n.cfg.ID, r.State, n.self.Incarnation)
			}
			continue
		}
		m, ok := n.members[r.ID]
		if ok && r.Epoch > m.Epoch {
			// Epoch claims are monotone, so the max is safe to adopt
			// whatever the rest of the entry's ordering says.
			m.Epoch = r.Epoch
		}
		if !ok {
			n.members[r.ID] = &memberState{Member: r, lastAdvance: now}
			if r.State != StateDead {
				changed = true
			}
			n.logf("cluster %s: member %s (%s) joined as %s", n.cfg.ID, r.ID, r.Addr, r.State)
			continue
		}
		switch {
		case r.Incarnation > m.Incarnation || (r.Incarnation == m.Incarnation && r.Beat > m.Beat):
			// Progress: adopt the newer pair; a member heard from again
			// is alive, whatever we or the rumor thought.
			wasDead := m.State == StateDead
			m.Incarnation, m.Beat = r.Incarnation, r.Beat
			m.Addr, m.GossipAddr = r.Addr, r.GossipAddr
			m.lastAdvance = now
			if r.State == StateDead {
				// A death rumor with a newer pair than ours: believe it
				// until the member itself refutes.
				m.State = StateDead
				if !wasDead {
					changed = true
				}
			} else if m.State != StateAlive {
				m.State = StateAlive
				if wasDead {
					changed = true
					n.logf("cluster %s: member %s (%s) revived", n.cfg.ID, m.ID, m.Addr)
				}
			}
		case r.Incarnation == m.Incarnation && r.Beat == m.Beat && r.State > m.State:
			// Same knowledge, worse verdict: adopt it (dead > suspect >
			// alive), so deaths converge without waiting out our own
			// timer.
			if r.State == StateDead && m.State != StateDead {
				changed = true
				n.logf("cluster %s: member %s (%s) dead (gossiped)", n.cfg.ID, m.ID, m.Addr)
			}
			m.State = r.State
		}
	}
	if changed {
		if mk := n.maxKnownEpochLocked(); mk > epoch {
			epoch = mk
		}
		epoch++
	}
	if epoch != n.epoch {
		n.setEpochLocked(epoch)
	}
	// An epoch advance is pushed out immediately rather than waiting for
	// the next tick: grants issued under the new epoch's token band are
	// only safe across our own death once peers have heard the claim, so
	// the window between bumping and gossiping must be as short as the
	// network allows, not a full heartbeat interval. Each node advances
	// to a given epoch at most once, so the eager pushes terminate.
	var packet []byte
	var targets []string
	if n.epoch > prevEpoch {
		packet = n.encodeViewLocked()
		targets = n.targetsLocked()
	}
	watchers, view := n.watchersLocked(changed)
	n.mu.Unlock()
	for _, w := range watchers {
		w(view)
	}
	for _, addr := range targets {
		n.send(addr, packet)
	}
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// Gossip packet format: magic "ag1", epoch uvarint, member count
// uvarint, then per member: id, addr, gossip addr (uvarint-length
// strings), incarnation uvarint, beat uvarint, claimed epoch uvarint,
// state byte. The sender always lists itself first; the whole table of
// a small cluster fits one datagram with room to spare.
var gossipMagic = [3]byte{'a', 'g', '1'}

func (n *Node) encodeViewLocked() []byte {
	buf := append(make([]byte, 0, 512), gossipMagic[:]...)
	buf = binary.AppendUvarint(buf, n.epoch)
	buf = binary.AppendUvarint(buf, uint64(1+len(n.members)))
	buf = appendMember(buf, n.self)
	for _, m := range n.members {
		buf = appendMember(buf, m.Member)
	}
	return buf
}

func appendMember(buf []byte, m Member) []byte {
	for _, s := range []string{m.ID, m.Addr, m.GossipAddr} {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	buf = binary.AppendUvarint(buf, m.Incarnation)
	buf = binary.AppendUvarint(buf, m.Beat)
	buf = binary.AppendUvarint(buf, m.Epoch)
	return append(buf, byte(m.State))
}

func decodeView(data []byte) (epoch uint64, members []Member, err error) {
	if len(data) < len(gossipMagic) || [3]byte(data[:3]) != gossipMagic {
		return 0, nil, errors.New("cluster: not a gossip packet")
	}
	data = data[3:]
	epoch, k := binary.Uvarint(data)
	if k <= 0 {
		return 0, nil, errors.New("cluster: bad epoch")
	}
	data = data[k:]
	count, k := binary.Uvarint(data)
	if k <= 0 || count > 1<<16 {
		return 0, nil, errors.New("cluster: bad member count")
	}
	data = data[k:]
	members = make([]Member, 0, count)
	for i := uint64(0); i < count; i++ {
		var m Member
		if m, data, err = decodeMember(data); err != nil {
			return 0, nil, err
		}
		members = append(members, m)
	}
	return epoch, members, nil
}

func decodeMember(data []byte) (m Member, rest []byte, err error) {
	for _, dst := range []*string{&m.ID, &m.Addr, &m.GossipAddr} {
		l, k := binary.Uvarint(data)
		if k <= 0 || l > uint64(len(data)-k) {
			return m, nil, errors.New("cluster: bad member string")
		}
		*dst = string(data[k : k+int(l)])
		data = data[k+int(l):]
	}
	var k int
	if m.Incarnation, k = binary.Uvarint(data); k <= 0 {
		return m, nil, errors.New("cluster: bad incarnation")
	}
	data = data[k:]
	if m.Beat, k = binary.Uvarint(data); k <= 0 {
		return m, nil, errors.New("cluster: bad beat")
	}
	data = data[k:]
	if m.Epoch, k = binary.Uvarint(data); k <= 0 {
		return m, nil, errors.New("cluster: bad epoch claim")
	}
	data = data[k:]
	if len(data) < 1 {
		return m, nil, errors.New("cluster: missing state")
	}
	if s := State(data[0]); s > StateDead {
		return m, nil, fmt.Errorf("cluster: unknown state %d", data[0])
	}
	m.State = State(data[0])
	if m.ID == "" {
		return m, nil, errors.New("cluster: member without id")
	}
	return m, data[1:], nil
}
