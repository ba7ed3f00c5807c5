package chaos

// The restart scenario: the only failure the in-memory scenarios
// cannot model — the whole server process dying and coming back. A
// durable server journals its grants; killing it outright (Kill is
// the in-process kill -9: sessions suppressed, lease manager halted
// without revoking, journal buffer dropped on the floor) and
// restarting on the same data directory must hand the new process the
// old one's obligations: every held key still held, still excluding
// contenders until its original deadline, and the fencing counter
// restored past every token the dead process ever issued.

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"anonmutex/lockd/client"
)

// waitDialable blocks until addr answers a ping — the restarted server
// recovers its journal before accepting, so this also bounds recovery
// time.
func waitDialable(addr string) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := client.DialConn(addr)
		if err == nil {
			err = c.Ping()
			c.Close()
			if err == nil {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: %s never became dialable: %w", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// runRestartUnderLoad: holders sit on keys and churn traffic runs when
// the server process "dies" mid-load; a second process on the same
// data directory must recover every held lease — excluding contenders
// on the dead holders' keys until their original TTLs lapse — and
// issue only strictly larger tokens afterwards.
func runRestartUnderLoad(cfg Config) (*Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	// Recovery after a restart is bounded by the original lease TTL, so
	// the exclusion window must be wide enough to observe across a
	// process handover; floor the effective TTL (the recovery bound
	// scales with it through finishReport).
	if cfg.TTL < 250*time.Millisecond {
		cfg.TTL = 250 * time.Millisecond
		cfg.Heartbeat = cfg.TTL / 4
	}
	dir, err := os.MkdirTemp("", "chaos-restart-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	r := &Report{}
	hA, err := startHarness(cfg, dir)
	if err != nil {
		return nil, err
	}

	// Holders take a key each and keep heartbeating until the kill, so
	// their leases are live — not expiring — when the process dies.
	const holders = 4
	preTokens := make(map[string]uint64, holders)
	holderConns := make([]*client.Conn, 0, holders)
	closeHolders := func() {
		for _, c := range holderConns {
			c.Close()
		}
	}
	for i := 0; i < holders; i++ {
		c, err := client.DialConn(hA.addr)
		if err != nil {
			closeHolders()
			return nil, err
		}
		holderConns = append(holderConns, c)
		c.AutoHeartbeat(cfg.Heartbeat)
		k := fmt.Sprintf("restart-hold-%d", i)
		if err := c.Acquire(k); err != nil {
			closeHolders()
			return nil, err
		}
		preTokens[k] = c.Token(k)
		if preTokens[k] == 0 {
			closeHolders()
			return nil, fmt.Errorf("chaos: no fencing token on %s", k)
		}
	}

	// Churn load on separate keys so the kill lands mid-traffic, with
	// acquires, releases, and journal commits genuinely in flight.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.DialConn(hA.addr)
			if err != nil {
				return
			}
			defer c.Close()
			k := fmt.Sprintf("restart-churn-%d", i)
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Errors are the point: the server dies under this loop.
				if ok, err := c.TryAcquire(k); err != nil {
					return
				} else if ok {
					if err := c.Release(k); err != nil {
						return
					}
				}
			}
		}(i)
	}
	time.Sleep(cfg.Duration / 4)

	killAt := time.Now()
	hA.srv.Kill()
	close(stop)
	wg.Wait()
	closeHolders()
	// Reap the Serve goroutine; the server is already dead. The lock
	// manager is deliberately NOT closed: the killed process still
	// "holds" its grants in memory, exactly like a real corpse.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	err = hA.srv.Shutdown(ctx)
	cancel()
	if err != nil {
		return r, fmt.Errorf("chaos: reaping killed server: %w", err)
	}
	if err := <-hA.serveErr; err != nil {
		return r, fmt.Errorf("chaos: killed server's Serve: %w", err)
	}
	r.Violations += hA.mgr.Violations()

	hB, err := startHarness(cfg, dir)
	if err != nil {
		return r, err
	}
	if err := waitDialable(hB.addr); err != nil {
		hB.stop()
		return r, err
	}
	r.Recovered = hB.srv.Recovered()
	if r.Recovered < holders {
		hB.stop()
		return r, fmt.Errorf("chaos: restarted server recovered %d leases, want at least the %d held keys", r.Recovered, holders)
	}

	contender, err := client.DialConn(hB.addr)
	if err != nil {
		hB.stop()
		return r, err
	}
	defer contender.Close()

	// While the dead holders' TTL budget is clearly unspent, their
	// recovered keys must still be exclusive — recovery that freed them
	// early would be a silent safety hole, not a liveness win.
	if time.Since(killAt) < cfg.TTL/2 {
		for k := range preTokens {
			ok, err := contender.TryAcquire(k)
			if err != nil {
				hB.stop()
				return r, err
			}
			if ok {
				hB.stop()
				return r, fmt.Errorf("chaos: contender took %s while its recovered lease was live", k)
			}
		}
	}

	// The dead holders never heartbeat again, so each key frees on its
	// original schedule; once taken, the new token must sit strictly
	// above the pre-crash grant.
	bound := 2*cfg.TTL + recoverySlack
	for k, pre := range preTokens {
		start := time.Now()
		for {
			ok, err := contender.TryAcquire(k)
			if err != nil {
				hB.stop()
				return r, err
			}
			if ok {
				break
			}
			if took := time.Since(start); took > bound {
				hB.stop()
				return r, fmt.Errorf("chaos: %s not recovered within %v", k, bound)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if took := time.Since(killAt); took > r.MaxRecovery {
			r.MaxRecovery = took
		}
		if tok := contender.Token(k); tok <= pre {
			hB.stop()
			return r, fmt.Errorf("chaos: post-restart token %d for %s not above pre-crash %d", tok, k, pre)
		}
		if err := contender.Release(k); err != nil {
			hB.stop()
			return r, err
		}
	}

	if err := hB.finishReport(cfg, r); err != nil {
		hB.stop()
		return r, err
	}
	return r, hB.stop()
}
