package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The yardstick: how fast this machine is running right now.
//
// The sandbox is a few vCPUs of a shared host, and its speed moves in
// phases of minutes: every workload, the network-free inproc included,
// runs 15–25 % slower for a while and then recovers. A run of 20 s sits
// inside one phase, so no window length averages it away, and ten runs
// that straddle a phase change spread wider than any bound. What does
// follow the phases is a fixed piece of CPU work timed next to the
// workload: a probe that alternated 0.3 s of this loop with 0.7 s of
// `serial` and of `fanout` for a quarter of an hour saw run-to-run spreads
// of 0.18 and 0.20 on the raw throughputs and 0.065 and 0.042 on
// throughput per yardstick iteration. (A pipe round trip through `cat`
// was tried as a second yardstick; it is noisier than the workloads.)
//
// So every replication is bracketed by two yardstick bursts, and the
// end-to-end rates and durations are reported as the reference machine —
// one that runs the yardstick at yardRef iterations a second — would
// have read them. The raw readings stay in the result as raw.*, with
// machine.speed beside them.

// yardRef is the reference machine's yardstick rate per goroutine, chosen
// near this sandbox's own so that scaled and raw values read alike.
const yardRef = 4.5e8

// yardTable is the yardstick's working set per goroutine: 1 MiB, so the
// loop also feels a neighbour in the shared cache.
const yardTable = 1 << 17

var yardSink atomic.Uint64 // keeps the loop's result alive

// yardstick runs the fixed loop on every scheduler of the generator for d
// and returns the machine's speed relative to the reference: iterations
// per second per goroutine over yardRef. It uses none of the repository's
// code, so no change under test can move it.
func yardstick(d time.Duration) float64 {
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	var total atomic.Uint64
	t0 := time.Now()
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tab := make([]uint64, yardTable)
			x := uint64(g + 1)
			var n uint64
			for time.Since(t0) < d {
				for i := 0; i < 20000; i++ { // xorshift64 steps, each a dependent load and store
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					tab[x&(yardTable-1)] += x
				}
				n += 20000
			}
			yardSink.Add(tab[0])
			total.Add(n)
		}()
	}
	wg.Wait()
	return float64(total.Load()) / time.Since(t0).Seconds() / float64(workers) / yardRef
}

// atReferenceSpeed rescales the replication's end-to-end rates and
// durations from this machine's seconds to the reference machine's, given
// the speed the yardstick read around it, and keeps the raw readings as
// per-layer metrics. Ratios, counts and sizes do not change.
func (r *runResult) atReferenceSpeed(speed float64) {
	r.PerLayer["machine.speed"] = metric{Value: speed, Unit: "ratio"}
	for name, m := range r.EndToEnd {
		if scaled, ok := m.atReferenceSpeed(speed); ok {
			r.PerLayer["raw."+name] = m
			r.EndToEnd[name] = scaled
		}
	}
}

// atReferenceSpeed rescales a rate or a duration; ok is false for a
// metric that is neither.
func (m metric) atReferenceSpeed(speed float64) (_ metric, ok bool) {
	var f float64
	switch m.Unit {
	case "1/s":
		f = 1 / speed
	case "s", "us":
		f = speed
	default:
		return m, false
	}
	out := metric{Value: m.Value * f, Unit: m.Unit}
	for _, v := range m.Slices {
		out.Slices = append(out.Slices, v*f)
	}
	return out, true
}
