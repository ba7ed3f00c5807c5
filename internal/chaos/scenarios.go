package chaos

// The scenario implementations. Each stands up its own harness,
// injects exactly one failure, measures recovery, and lets
// finishReport enforce the shared invariants (zero violations,
// recovery within 2×TTL plus slack).

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"anonmutex/internal/loadgen"
	"anonmutex/internal/workload"
	"anonmutex/lockd/client"
	"anonmutex/lockd/wire"
)

// runKillHolder: the holder's process dies inside its critical section
// — socket torn down by the kernel, no release op ever sent. The
// server's session teardown (not TTL expiry) must free the grants, so
// recovery is bounded by teardown latency, far under the TTL bound.
// A contender is already blocked on the key when the holder dies,
// which is the worst case: it observes the whole unavailability
// window.
func runKillHolder(cfg Config) (*Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	h, err := startHarness(cfg)
	if err != nil {
		return nil, err
	}
	r := &Report{}
	holder, err := client.DialConn(h.addr)
	if err != nil {
		h.stop()
		return nil, err
	}
	holder.AutoHeartbeat(cfg.Heartbeat)
	if err := holder.Acquire("cs"); err != nil {
		h.stop()
		return nil, err
	}
	// Park a contender on the key, then kill the holder mid-CS.
	bound := 2*cfg.TTL + recoverySlack
	got := make(chan error, 1)
	waiting := make(chan struct{})
	go func() {
		close(waiting)
		took, err := acquireWithin(h.addr, "cs", bound)
		if took > r.MaxRecovery {
			r.MaxRecovery = took
		}
		got <- err
	}()
	<-waiting
	time.Sleep(cfg.Heartbeat) // let the contender reach the wait queue
	holder.Close()            // the kill: socket gone, no release sent
	if err := <-got; err != nil {
		h.stop()
		return r, err
	}
	if err := h.finishReport(cfg, r); err != nil {
		h.stop()
		return r, err
	}
	return r, h.stop()
}

// runStopHeartbeat: the holder stalls inside its critical section with
// its socket perfectly healthy — only the heartbeats stop. Teardown
// never fires; TTL expiry is the only recovery path, and the stalled
// holder's later release must be fenced, not honored.
func runStopHeartbeat(cfg Config) (*Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	h, err := startHarness(cfg)
	if err != nil {
		return nil, err
	}
	r := &Report{}
	holder, err := client.DialConn(h.addr)
	if err != nil {
		h.stop()
		return nil, err
	}
	defer holder.Close()
	holder.AutoHeartbeat(cfg.Heartbeat)
	if err := holder.Acquire("cs"); err != nil {
		h.stop()
		return nil, err
	}
	// Prove the lease renews while healthy, then stall.
	time.Sleep(2 * cfg.Heartbeat)
	holder.PauseHeartbeat()
	stall := time.Now()
	bound := 2*cfg.TTL + recoverySlack
	if _, err := acquireWithin(h.addr, "cs", bound); err != nil {
		h.stop()
		return r, err
	}
	// Unavailability is measured from the stall, not from the
	// contender's arrival: the stall is when the holder stopped making
	// progress.
	r.MaxRecovery = time.Since(stall)
	// The stalled holder wakes up and tries to finish its critical
	// section: the release must be rejected through its stale token.
	holder.ResumeHeartbeat()
	if err := holder.Release("cs"); !errors.Is(err, client.ErrFenced) {
		h.stop()
		return r, fmt.Errorf("chaos: stalled holder's release returned %v, want ErrFenced", err)
	}
	if err := h.finishReport(cfg, r); err != nil {
		h.stop()
		return r, err
	}
	if r.Expired == 0 {
		h.stop()
		return r, fmt.Errorf("chaos: no lease expiry recorded; recovery came from the wrong path")
	}
	if r.FencedRejects == 0 {
		h.stop()
		return r, fmt.Errorf("chaos: no fenced rejection recorded for the stale release")
	}
	return r, h.stop()
}

// runDropMidPipeline: a multiplexed binary connection holding grants
// on several streams is dropped while batched requests are still in
// flight. Connection teardown must reap every stream's grants exactly
// once — the token arbitration makes a teardown racing a concurrent
// TTL expiry resolve to one release — and every key must come back.
func runDropMidPipeline(cfg Config) (*Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	h, err := startHarness(cfg)
	if err != nil {
		return nil, err
	}
	r := &Report{}
	m, err := client.DialMux(h.addr)
	if err != nil {
		h.stop()
		return nil, err
	}
	const streams = 4
	keys := make([]string, streams)
	conns := make([]*client.Conn, streams)
	for i := range conns {
		keys[i] = fmt.Sprintf("pipe-%d", i)
		c, err := m.Open()
		if err != nil {
			h.stop()
			return nil, err
		}
		conns[i] = c
		if err := c.Acquire(keys[i]); err != nil {
			h.stop()
			return nil, err
		}
	}
	// Keep a pipeline of batched holds/pings in flight on every stream
	// while the socket is yanked out from under them.
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *client.Conn) {
			defer wg.Done()
			reqs := []wire.Request{{Op: wire.OpPing}, {Op: wire.OpPing}, {Op: wire.OpPing}}
			resps := make([]wire.Response, len(reqs))
			for {
				if err := c.Batch(reqs, resps); err != nil {
					return // the drop: every in-flight batch fails
				}
			}
		}(c)
	}
	time.Sleep(cfg.Heartbeat) // let the pipelines fill
	drop := time.Now()
	m.Close()
	wg.Wait()
	bound := 2*cfg.TTL + recoverySlack
	for _, k := range keys {
		if _, err := acquireWithin(h.addr, k, bound); err != nil {
			h.stop()
			return r, err
		}
	}
	r.MaxRecovery = time.Since(drop)
	if err := h.finishReport(cfg, r); err != nil {
		h.stop()
		return r, err
	}
	return r, h.stop()
}

// runCrashUnderLoad: open-loop zipf traffic where a fraction of the
// ops crash — acquire a key on a session of their own and go silent
// holding it, socket open. The run must stay violation-free while TTL
// expiry continuously recycles the corpses, and after the load stops
// every key must be acquirable within the recovery bound.
func runCrashUnderLoad(cfg Config) (*Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	h, err := startHarness(cfg)
	if err != nil {
		return nil, err
	}
	r := &Report{}
	cl, err := client.Dial(client.Options{
		Addrs:        []string{h.addr},
		Heartbeat:    cfg.Heartbeat,
		CrashTimeout: 2*cfg.TTL + recoverySlack,
	})
	if err != nil {
		h.stop()
		return nil, err
	}
	defer cl.Close()
	const keys = 8
	spec := workload.Spec{
		Seed:    cfg.Seed,
		Keys:    workload.KeySpec{Dist: workload.KeyZipf},
		Arrival: workload.ArrivalSpec{Process: workload.ArrivalPoisson, RatePerSec: 500},
		Ops:     workload.OpMix{Lock: 0.9, Crash: 0.1},
	}
	res, err := loadgen.Run(loadgen.Config{
		Clients:   8,
		Keys:      keys,
		Duration:  cfg.Duration,
		Workload:  &spec,
		NewLocker: func(int) (loadgen.Locker, error) { return cl.Open() },
	})
	if err != nil {
		h.stop()
		return nil, err
	}
	r.Cycles = res.Cycles
	r.Crashes = res.Crashes
	r.Violations = uint64(res.Violations)
	if r.Crashes == 0 {
		h.stop()
		return r, fmt.Errorf("chaos: the crash fraction never fired (cycles=%d)", r.Cycles)
	}
	// The corpses' sockets are still open (the client holds them), so
	// only TTL expiry can free whatever they hold: sweep every key and
	// record the worst recovery.
	bound := 2*cfg.TTL + recoverySlack
	for i := 0; i < keys; i++ {
		took, err := acquireWithin(h.addr, fmt.Sprintf("key-%04d", i), bound)
		if err != nil {
			h.stop()
			return r, err
		}
		if took > r.MaxRecovery {
			r.MaxRecovery = took
		}
	}
	if err := h.finishReport(cfg, r); err != nil {
		h.stop()
		return r, err
	}
	if r.Expired == 0 {
		h.stop()
		return r, fmt.Errorf("chaos: %d crashes but no lease expiries recorded", r.Crashes)
	}
	// Release the corpses' sockets only after the sweep proved expiry
	// did the recovery.
	cl.Close()
	return r, h.stop()
}
