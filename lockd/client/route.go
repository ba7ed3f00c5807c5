package client

// Cluster-aware routing behind the unified Client/Session interfaces.
// A poolClient owns the per-address transports (dialed lazily) and one
// ownership cache shared by all its sessions; each routedSession keeps
// one sub-session per address it has talked to and pins every grant to
// the address that issued it. Acquire-type ops follow wrong_owner
// redirects (updating the cache) and retry unavailable members against
// the rest; grant-bound ops (release, holds) go only to the granting
// address — if ownership moved, that node answers Fenced, which is the
// truthful outcome, and if the node died the grant died with it.

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"sync"
	"time"

	"anonmutex/lockd/wire"
)

// retryDelay is the pause before retry number attempt (0-based):
// exponential from base, capped at max, jittered uniformly over
// [d/2, d]. The jitter is what matters during a restart window — a
// fleet of clients that all saw the server die at the same instant
// must not all redial at the same instant, every doubling thereafter.
func retryDelay(attempt int, base, max time.Duration) time.Duration {
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	half := d / 2
	return half + rand.N(d-half+1)
}

// errClientClosed fails operations issued after Close.
var errClientClosed = errors.New("client: closed")

// ownerCacheCap bounds the ownership cache: past it, learning a new
// key evicts an arbitrary resident entry (one map-range step — cheap,
// and any entry is a fine victim since a miss only costs one redirect).
// Without the cap a large keyspace would grow the routed client without
// limit, one entry per key ever touched.
const ownerCacheCap = 4096

// ownerCache maps keys to the cluster address last seen owning them,
// stamped with the membership epoch the information came from. Entries
// are only ever learned from redirects or owner hints (the server's own
// routing table), invalidated when they mislead, and flushed wholesale
// when a newer epoch appears — after a membership change every cached
// owner is suspect, and one round of redirects re-learns the hot set.
type ownerCache struct {
	mu     sync.RWMutex
	epoch  uint64
	owners map[string]string
}

// lookup reports the cached owner for name, if any.
func (oc *ownerCache) lookup(name string) (string, bool) {
	oc.mu.RLock()
	addr, ok := oc.owners[name]
	oc.mu.RUnlock()
	return addr, ok
}

// learn records a redirect: name is owned by addr as of epoch. A newer
// epoch flushes the whole cache first; a stale epoch (older than what
// the cache has already seen) is ignored — the redirect was computed
// under a view that has since moved on.
func (oc *ownerCache) learn(name, addr string, epoch uint64) {
	oc.mu.Lock()
	defer oc.mu.Unlock()
	if epoch < oc.epoch {
		return
	}
	if epoch > oc.epoch {
		oc.epoch = epoch
		oc.owners = make(map[string]string)
	}
	if oc.owners == nil {
		oc.owners = make(map[string]string)
	}
	if len(oc.owners) >= ownerCacheCap {
		if _, resident := oc.owners[name]; !resident {
			for victim := range oc.owners {
				delete(oc.owners, victim)
				break
			}
		}
	}
	oc.owners[name] = addr
}

// invalidate drops name's cached owner (it redirected us wrong, or the
// node behind it stopped answering).
func (oc *ownerCache) invalidate(name string) {
	oc.mu.Lock()
	delete(oc.owners, name)
	oc.mu.Unlock()
}

// Epoch reports the newest membership epoch the cache has seen.
func (oc *ownerCache) Epoch() uint64 {
	oc.mu.RLock()
	defer oc.mu.RUnlock()
	return oc.epoch
}

// fallbackAddr deterministically guesses an owner for name among addrs
// when the cache has nothing: highest rendezvous score wins, skipping
// addresses reported unusable (unless that empties the candidate set).
// The guess only has to be stable, not right — a wrong guess costs one
// redirect. A single address is the guess whatever skip says.
func fallbackAddr(addrs []string, name string, skip func(string) bool) string {
	if len(addrs) == 1 {
		return addrs[0]
	}
	best := ""
	var bestScore uint64
	for pass := 0; pass < 2 && best == ""; pass++ {
		for _, addr := range addrs {
			if pass == 0 && skip != nil && skip(addr) {
				continue
			}
			h := fnv.New64a()
			h.Write([]byte(addr))
			h.Write([]byte{0})
			h.Write([]byte(name))
			if score := h.Sum64(); best == "" || score > bestScore || (score == bestScore && addr < best) {
				best, bestScore = addr, score
			}
		}
	}
	return best
}

// poolClient is the Client behind Dial: per-address socket pools, the
// shared ownership cache, the session Stats runs on, and the crash
// corpses.
type poolClient struct {
	opts  Options
	cache ownerCache

	mu       sync.Mutex
	pools    map[string]*muxPool // one socket pool per address
	down     map[string]time.Time
	sessions map[*routedSession]struct{} // the stats session included
	stats    *routedSession
	corpses  []*routedSession
	closed   bool
}

func newPoolClient(opts Options) *poolClient {
	cl := &poolClient{
		opts:     opts,
		pools:    make(map[string]*muxPool),
		down:     make(map[string]time.Time),
		sessions: make(map[*routedSession]struct{}),
	}
	cl.stats = cl.newSession(cl.pools, 0)
	cl.sessions[cl.stats] = struct{}{}
	return cl
}

// newSession makes a routed session whose sub-sessions open on pools.
func (cl *poolClient) newSession(pools map[string]*muxPool, hbEvery time.Duration) *routedSession {
	return &routedSession{
		cl:      cl,
		pools:   pools,
		subs:    make(map[string]*Conn),
		grants:  make(map[string]string),
		granted: make(map[string]*Conn),
		hbEvery: hbEvery,
	}
}

// Open starts a new routed session.
func (cl *poolClient) Open() (Session, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.closed {
		return nil, errClientClosed
	}
	s := cl.newSession(cl.pools, cl.opts.Heartbeat)
	cl.sessions[s] = struct{}{}
	return s, nil
}

// openConn opens one sub-session to addr on the socket pool pools keeps
// for it (guarded by cl.mu): a stream of a binary socket, or a JSON
// socket of its own.
func (cl *poolClient) openConn(pools map[string]*muxPool, addr string) (*Conn, error) {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return nil, errClientClosed
	}
	p := pools[addr]
	if p == nil {
		p = &muxPool{addr: addr, json: cl.opts.Proto == ProtoJSON, perSocket: max(cl.opts.ConnsPerSocket, 1)}
		pools[addr] = p
	}
	cl.mu.Unlock()
	c, err := p.Open()
	if err != nil {
		cl.markDown(addr)
	}
	return c, err
}

// downHold is how long markDown keeps an address out of the fallback
// guess.
const downHold = 100 * time.Millisecond

// markDown quarantines addr from the fallback guess for downHold, so a
// dead member stops being every cache miss's first hop. Entries whose
// quarantine has lapsed are swept here, so the map stays bounded by the
// members that failed recently, not ever.
func (cl *poolClient) markDown(addr string) {
	now := time.Now()
	cl.mu.Lock()
	for a, until := range cl.down {
		if !now.Before(until) {
			delete(cl.down, a)
		}
	}
	cl.down[addr] = now.Add(downHold)
	cl.mu.Unlock()
}

// isDown reports whether addr is still inside its quarantine; a lapsed
// entry is dropped on the way out.
func (cl *poolClient) isDown(addr string) bool {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	until, ok := cl.down[addr]
	if !ok {
		return false
	}
	if time.Now().Before(until) {
		return true
	}
	delete(cl.down, addr)
	return false
}

// route resolves the address to try first for name: the cached owner
// when one is known and answering, the deterministic fallback guess
// otherwise.
func (cl *poolClient) route(name string) string {
	if addr, ok := cl.cache.lookup(name); ok && !cl.isDown(addr) {
		return addr
	}
	return fallbackAddr(cl.opts.Addrs, name, cl.isDown)
}

// Stats sums counter snapshots across every reachable address, on the
// client's own session — a sub-session per address over the client's
// pooled transports, kept between calls; it fails only when no address
// answers.
func (cl *poolClient) Stats() (wire.Stats, error) {
	var sum wire.Stats
	var lastErr error
	reached := 0
	for _, addr := range cl.opts.Addrs {
		c, err := cl.stats.sub(addr)
		if err != nil {
			lastErr = err
			continue
		}
		st, err := c.Stats()
		if err != nil {
			if errors.Is(err, ErrUnavailable) {
				cl.stats.dropSub(addr, c)
			}
			lastErr = err
			continue
		}
		reached++
		sum.Acquires += st.Acquires
		sum.Releases += st.Releases
		sum.Waits += st.Waits
		sum.TryAcquires += st.TryAcquires
		sum.TryFailures += st.TryFailures
		sum.LockCreates += st.LockCreates
		sum.Evictions += st.Evictions
		sum.ResidentLocks += st.ResidentLocks
		sum.Aborts += st.Aborts
		sum.LeaseTimeouts += st.LeaseTimeouts
		sum.Expired += st.Expired
		sum.Revoked += st.Revoked
		sum.FencedRejects += st.FencedRejects
		sum.Violations += st.Violations
		sum.Sessions += st.Sessions
		sum.Streams += st.Streams
	}
	if reached == 0 {
		return wire.Stats{}, fmt.Errorf("client: stats: no address reachable: %w", lastErr)
	}
	return sum, nil
}

// crash acquires name on a corpse and parks it: a session whose sockets
// are its own, so it never shares fate with a live session, and which
// goes silent holding name — the orphan-holder footprint lease recovery
// is tested against. The acquire routes like any other: it follows
// redirects and retries past members that stopped answering. A grant
// without a fencing token comes from a lease-free server, where nothing
// but this client's Close would ever free the orphan: the corpse gives
// the key back and the crash fails.
func (cl *poolClient) crash(name string) (bool, error) {
	corpse := cl.newSession(make(map[string]*muxPool), 0)
	ok, err := corpse.AcquireFor(name, cl.opts.CrashTimeout)
	if err != nil || !ok {
		corpse.closeSubs()
		if err != nil {
			return false, fmt.Errorf("client: crash %s: %w", name, err)
		}
		return false, nil // died while still waiting: abort, not failure
	}
	if corpse.Token(name) == 0 {
		err := corpse.Release(name)
		corpse.closeSubs()
		return false, errors.Join(fmt.Errorf("client: crash %s: the server runs no leases, so nothing would recover the orphan", name), err)
	}
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		corpse.closeSubs()
		return false, errClientClosed
	}
	cl.corpses = append(cl.corpses, corpse)
	cl.mu.Unlock()
	return true, nil
}

// forget unregisters a closed session.
func (cl *poolClient) forget(s *routedSession) {
	cl.mu.Lock()
	delete(cl.sessions, s)
	cl.mu.Unlock()
}

// Close tears down everything the client owns: open sessions and crash
// corpses, and with their last streams the pooled sockets.
func (cl *poolClient) Close() error {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return nil
	}
	cl.closed = true
	sessions := make([]*routedSession, 0, len(cl.sessions))
	for s := range cl.sessions {
		sessions = append(sessions, s)
	}
	cl.sessions = nil
	sessions = append(sessions, cl.corpses...)
	cl.corpses = nil
	cl.mu.Unlock()
	var first error
	for _, s := range sessions {
		if err := s.closeSubs(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// routedSession is one Session over a poolClient: sub-sessions per
// address, grants pinned to the address that issued them.
type routedSession struct {
	cl *poolClient
	// pools is where sub opens its streams: the client's shared pools,
	// or a corpse's own.
	pools map[string]*muxPool

	mu      sync.Mutex
	subs    map[string]*Conn
	grants  map[string]string // held name → granting address
	granted map[string]*Conn  // last grantor per name (kept after release, for Token)
	hbEvery time.Duration
	closed  bool
}

// sub returns the session's connection to addr, opening it on first
// use (with the auto-heartbeat ticker, when configured).
func (s *routedSession) sub(addr string) (*Conn, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errClientClosed
	}
	if c := s.subs[addr]; c != nil {
		s.mu.Unlock()
		return c, nil
	}
	s.mu.Unlock()
	c, err := s.cl.openConn(s.pools, addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		c.Close()
		return nil, errClientClosed
	}
	if prior := s.subs[addr]; prior != nil {
		// Lost an open race; keep the first.
		s.mu.Unlock()
		c.Close()
		return prior, nil
	}
	s.subs[addr] = c
	if s.hbEvery > 0 {
		c.AutoHeartbeat(s.hbEvery)
	}
	s.mu.Unlock()
	return c, nil
}

// dropSub retires a sub-session whose transport broke, so the next op
// to that address redials instead of failing fast forever.
func (s *routedSession) dropSub(addr string, c *Conn) {
	s.mu.Lock()
	if s.subs[addr] == c {
		delete(s.subs, addr)
	}
	s.mu.Unlock()
	c.Close()
}

// acquireRoute runs one acquire-type op with routing: redirects are
// followed (teaching the cache) up to maxRedirects, unavailable members
// are retried against the rest with backoff, and a success pins the
// grant to the address that issued it. A response carrying an owner
// hint — a proxy-mode node answering for a key it forwarded — also
// teaches the cache: the grant stays pinned to the node that served it
// (release and heartbeat must go where the grant lives, and the proxy
// relays them), but the session's next acquire of that key routes
// straight to the owner, so hot keys converge to direct routing after
// one forwarded trip.
func (s *routedSession) acquireRoute(name string, op func(c *Conn) (wire.Response, error)) (wire.Response, error) {
	// Two tries per member and two to spare; redirect hops are budgeted
	// separately by maxRedirects.
	maxAttempts := 2*len(s.cl.opts.Addrs) + 2
	hops := 0
	next := "" // a just-received redirect target, followed unconditionally
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		addr := next
		next = ""
		if addr == "" {
			addr = s.cl.route(name)
		}
		c, err := s.sub(addr)
		if err == nil {
			var resp wire.Response
			resp, err = op(c)
			if err == nil {
				if resp.OwnerHint && resp.Owner != "" {
					s.cl.cache.learn(name, resp.Owner, resp.Epoch)
				}
				if resp.Acquired {
					s.mu.Lock()
					s.grants[name] = addr
					s.granted[name] = c
					s.mu.Unlock()
				}
				return resp, nil
			}
			var redir *RedirectError
			if errors.As(err, &redir) {
				s.cl.cache.learn(redir.Name, redir.Owner, redir.Epoch)
				hops++
				if hops > maxRedirects {
					return wire.Response{}, err
				}
				// Go where the redirect points, not where the cache says:
				// the cache may rightly refuse to learn from a node whose
				// epoch counter lags the cluster, but the member that just
				// rejected us still knows its view's owner, and following
				// it breaks redirect loops during epoch convergence.
				next = redir.Owner
				continue // no backoff: the redirect told us where to go
			}
			if errors.Is(err, ErrUnavailable) {
				s.cl.markDown(addr)
				s.dropSub(addr, c)
			} else {
				return wire.Response{}, err // a real rejection (aborted, held, fenced…)
			}
		}
		// Dial failure or mid-op transport loss: the cached owner (if
		// that is what sent us here) is unusable, so forget it and let
		// the fallback pick a surviving member after a short pause.
		s.cl.cache.invalidate(name)
		lastErr = err
		time.Sleep(retryDelay(attempt, retryBackoff, retryBackoffMax))
	}
	return wire.Response{}, fmt.Errorf("client: %s: no cluster member could serve the acquire: %w", name, lastErr)
}

// grantConn resolves the connection a grant-bound op must use: the
// sub-session at the granting address (falling back to routing when the
// session holds no grant — the server's rejection is the right answer).
func (s *routedSession) grantConn(name string) (*Conn, string, error) {
	s.mu.Lock()
	addr, ok := s.grants[name]
	s.mu.Unlock()
	if !ok {
		addr = s.cl.route(name)
	}
	c, err := s.sub(addr)
	return c, addr, err
}

// Acquire blocks until the session holds name on its owning node.
func (s *routedSession) Acquire(name string) error {
	resp, err := s.acquireRoute(name, func(c *Conn) (wire.Response, error) {
		return c.doAcquire(wire.Request{Op: wire.OpAcquire, Name: name})
	})
	if err != nil {
		return err
	}
	if resp.Aborted {
		return fmt.Errorf("%w: %s", ErrAborted, name)
	}
	return nil
}

// AcquireFor bounds the attempt; expiry reports (false, nil).
func (s *routedSession) AcquireFor(name string, d time.Duration) (bool, error) {
	resp, err := s.acquireRoute(name, func(c *Conn) (wire.Response, error) {
		return c.doAcquire(acquireForRequest(name, d))
	})
	return resp.Acquired, err
}

// TryAcquire probes the owning node without waiting.
func (s *routedSession) TryAcquire(name string) (bool, error) {
	resp, err := s.acquireRoute(name, func(c *Conn) (wire.Response, error) {
		return c.doAcquire(wire.Request{Op: wire.OpTryAcquire, Name: name})
	})
	return resp.Acquired, err
}

// Release gives a held name back to the node that granted it. The
// grant's address pin is dropped only once the granting node has
// actually answered the release (success or a definitive rejection):
// a dial or transport failure keeps the pin, so a retried Release
// still routes to the node that holds the grant instead of asking a
// stranger that would answer "does not hold" while the grant lives on
// until its TTL.
func (s *routedSession) Release(name string) error {
	c, addr, err := s.grantConn(name)
	if err != nil {
		return err
	}
	if err := c.Release(name); err != nil {
		if errors.Is(err, ErrUnavailable) {
			s.dropSub(addr, c)
			return err
		}
		// The node answered: whatever it said (fenced, not held…), the
		// grant is definitively gone there.
		s.forgetGrant(name)
		return err
	}
	s.forgetGrant(name)
	return nil
}

// forgetGrant drops name's granting-address pin.
func (s *routedSession) forgetGrant(name string) {
	s.mu.Lock()
	delete(s.grants, name)
	s.mu.Unlock()
}

// Holds asks the granting node whether the session still holds name.
func (s *routedSession) Holds(name string) (bool, error) {
	c, addr, err := s.grantConn(name)
	if err != nil {
		return false, err
	}
	held, err := c.Holds(name)
	if err != nil && errors.Is(err, ErrUnavailable) {
		s.dropSub(addr, c)
	}
	return held, err
}

// Crash abandons name on a throwaway session owned by the client.
func (s *routedSession) Crash(name string) (bool, error) {
	return s.cl.crash(name)
}

// Heartbeat renews the session's leases on every node it has grants
// from, in parallel — the beats are independent round trips to
// independent nodes, and a slow member must not eat the other members'
// renewal margin (serial beats made the effective deadline on the last
// node TTL minus the sum of everyone else's latency). A fenced beat
// (some grant already expired) is reported after every sub has been
// renewed; a sub whose transport broke is dropped — its grants are gone
// with the node, which the next op will discover.
func (s *routedSession) Heartbeat() error {
	s.mu.Lock()
	type pair struct {
		addr string
		c    *Conn
	}
	subs := make([]pair, 0, len(s.subs))
	for addr, c := range s.subs {
		subs = append(subs, pair{addr, c})
	}
	s.mu.Unlock()
	if len(subs) == 1 {
		// One node: no fan-out to pay for.
		if err := subs[0].c.Heartbeat(); err != nil {
			if errors.Is(err, ErrUnavailable) {
				s.dropSub(subs[0].addr, subs[0].c)
				return nil
			}
			return err
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	for _, p := range subs {
		wg.Add(1)
		go func(p pair) {
			defer wg.Done()
			if err := p.c.Heartbeat(); err != nil {
				if errors.Is(err, ErrUnavailable) {
					s.dropSub(p.addr, p.c)
					return
				}
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
			}
		}(p)
	}
	wg.Wait()
	return firstErr
}

// AutoHeartbeat starts the renewal ticker on every current and future
// sub-session.
func (s *routedSession) AutoHeartbeat(every time.Duration) {
	s.mu.Lock()
	if s.hbEvery == 0 {
		s.hbEvery = every
	}
	subs := make([]*Conn, 0, len(s.subs))
	for _, c := range s.subs {
		subs = append(subs, c)
	}
	every = s.hbEvery
	s.mu.Unlock()
	for _, c := range subs {
		c.AutoHeartbeat(every)
	}
}

// Ping probes the first answering member.
func (s *routedSession) Ping() error {
	var lastErr error
	for _, addr := range s.cl.opts.Addrs {
		c, err := s.sub(addr)
		if err == nil {
			if err = c.Ping(); err == nil {
				return nil
			}
			if errors.Is(err, ErrUnavailable) {
				s.dropSub(addr, c)
			}
		}
		lastErr = err
	}
	return lastErr
}

// Token reports the fencing token of the session's most recent grant on
// name, whichever node issued it.
func (s *routedSession) Token(name string) uint64 {
	s.mu.Lock()
	c := s.granted[name]
	s.mu.Unlock()
	if c == nil {
		return 0
	}
	return c.Token(name)
}

// closeSubs tears down the session's sub-connections.
func (s *routedSession) closeSubs() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	subs := make([]*Conn, 0, len(s.subs))
	for _, c := range s.subs {
		subs = append(subs, c)
	}
	s.subs = nil
	s.mu.Unlock()
	var first error
	for _, c := range subs {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close ends the session; every node it held grants on releases them.
func (s *routedSession) Close() error {
	err := s.closeSubs()
	s.cl.forget(s)
	return err
}
