package experiments

import (
	"context"
	"fmt"
	"net"
	"time"

	"anonmutex/internal/loadgen"
	"anonmutex/internal/lockmgr"
	"anonmutex/internal/stats"
	"anonmutex/internal/workload"
	"anonmutex/lockd"
	"anonmutex/lockd/client"
	"anonmutex/lockd/wire"
)

// LeaseSweep (experiment S5) is the crash-recovery grid: lease TTL ×
// heartbeat interval × offered rate over the full lockd network path,
// with a fraction of the open-loop zipf traffic crashing — acquiring a
// key on a session of its own and going silent holding it, socket
// still open, so only TTL expiry can recover the key. The sweep
// reports the lease lifecycle counters (expiries, fenced rejections)
// alongside throughput, plus the worst post-run orphan-recovery time a
// fresh contender observed; unavailability must stay bounded by the
// TTL plus the revocation cost, and the mutual-exclusion cross-checks
// must read 0 throughout — a crashed holder degrades into one TTL of
// unavailability, never into a corrupted critical section. A tight
// heartbeat (TTL/8) keeps live holders safely renewed; TTL/2 shows the
// margin shrinking while still correct.
func LeaseSweep() (*stats.Table, error) {
	t := &stats.Table{
		Title: "S5 — lease sweep: TTL × heartbeat × offered rate under a crash fraction",
		Header: []string{"ttl", "heartbeat", "offered/s", "achieved/s", "cycles",
			"crashes", "expired", "fenced", "violations", "max recovery ms"},
	}
	const clients, keys = 12, 8
	const cellTime = 200 * time.Millisecond
	ttls := []time.Duration{25 * time.Millisecond, 100 * time.Millisecond}
	hbFracs := []int{8, 2} // heartbeat = TTL/8 (comfortable), TTL/2 (tight)
	rates := []float64{1_000, 20_000}
	cell := 0
	for _, ttl := range ttls {
		for _, frac := range hbFracs {
			for _, rate := range rates {
				cell++
				row, err := runLeaseCell(ttl, ttl/time.Duration(frac), rate, cell, clients, keys, cellTime)
				if err != nil {
					return nil, fmt.Errorf("S5 ttl=%v hb=1/%d rate=%g: %w", ttl, frac, rate, err)
				}
				t.AddRow(row...)
			}
		}
	}
	t.Notes = append(t.Notes,
		"5% of arrivals crash: a throwaway session acquires the key and goes silent holding it with its socket open, so only lease TTL expiry can recover it",
		"max recovery is the worst post-run blocking acquire over every key, measured while the corpses' sockets are still open — it must stay within 2×TTL",
		"fenced counts stale-token ops the server rejected; the violations column (client cross-checks plus the server's own) is exact and must be 0")
	return t, nil
}

// runLeaseCell runs one S5 cell and returns its table row.
func runLeaseCell(ttl, heartbeat time.Duration, rate float64, seed, clients, keys int, d time.Duration) ([]any, error) {
	mgr, err := lockmgr.New(lockmgr.Config{Shards: 4, HandlesPerLock: 3, Seed: uint64(1000 + seed)})
	if err != nil {
		return nil, err
	}
	srv := lockd.NewServer(mgr)
	srv.LeaseTTL = ttl
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Close()
		return nil, err
	}
	addr := ln.Addr().String()
	recoveryBound := 2*ttl + 250*time.Millisecond
	cl, err := client.Dial(client.Options{Addrs: []string{addr}, Heartbeat: heartbeat, CrashTimeout: recoveryBound})
	if err != nil {
		ln.Close()
		mgr.Close()
		return nil, err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	spec := workload.Spec{
		Keys: workload.KeySpec{Dist: workload.KeyZipf, ZipfS: 1.1},
		Arrival: workload.ArrivalSpec{
			Process: workload.ArrivalPoisson, RatePerSec: rate, MaxBacklog: 64,
		},
		Ops: workload.OpMix{Lock: 0.95, Crash: 0.05},
	}
	cfg := loadgen.Config{
		Clients: clients, Keys: keys, Duration: d,
		Workload: &spec, Seed: uint64(1100 + seed),
		NewLocker: func(int) (loadgen.Locker, error) { return cl.Open() },
	}
	res, runErr := loadgen.Run(cfg)

	// Recovery sweep before the corpses' sockets close: the worst
	// blocking acquire over every key bounds the unavailability a
	// crashed holder caused.
	var maxRecovery time.Duration
	var sweepErr error
	if runErr == nil {
		for i := 0; i < keys; i++ {
			took, err := leaseRecoveryProbe(addr, fmt.Sprintf("key-%04d", i), recoveryBound)
			if err != nil {
				sweepErr = err
				break
			}
			if took > maxRecovery {
				maxRecovery = took
			}
		}
	}
	var st wire.Stats
	if runErr == nil && sweepErr == nil {
		c, err := client.DialConn(addr)
		if err == nil {
			st, err = c.Stats()
			c.Close()
		}
		if err != nil {
			sweepErr = err
		}
	}
	cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return nil, err
	}
	if err := <-serveErr; err != nil {
		return nil, err
	}
	if runErr != nil {
		mgr.Close()
		return nil, runErr
	}
	if sweepErr != nil {
		mgr.Close()
		return nil, sweepErr
	}
	violations := uint64(res.Violations) + st.Violations + mgr.Violations()
	if err := mgr.Close(); err != nil {
		return nil, err
	}
	return []any{
		ttl.String(), heartbeat.String(), res.OfferedPerSec, res.Throughput, res.Cycles,
		res.Crashes, st.Expired, st.FencedRejects, violations,
		float64(maxRecovery.Microseconds()) / 1000,
	}, nil
}

// leaseRecoveryProbe measures one orphan recovery: a blocking acquire
// of name bounded by the scenario's recovery budget.
func leaseRecoveryProbe(addr, name string, bound time.Duration) (time.Duration, error) {
	c, err := client.DialConn(addr)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	start := time.Now()
	ok, err := c.AcquireFor(name, bound)
	took := time.Since(start)
	if err != nil {
		return took, err
	}
	if !ok {
		return took, fmt.Errorf("experiments: %s not recovered within %v", name, bound)
	}
	return took, c.Release(name)
}
