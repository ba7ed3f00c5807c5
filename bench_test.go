// Ad-hoc benchmarks, one family per paper artifact. Run with:
//
//	go test -run '^$' -bench=. -benchmem
//
// Families:
//
//	BenchmarkTableI_*    — permutation-translated register access (Table I)
//	BenchmarkFigure1_*   — Algorithm 1 acquisitions, solo and contended
//	BenchmarkFigure2_*   — Algorithm 2 acquisitions, solo and contended
//	BenchmarkTableII_*   — exhaustive model-check throughput per cell
//	BenchmarkTheorem5_*  — lock-step ring construction rounds
//	BenchmarkEntryCost_* — shared-memory steps to enter (reported metric)
//	BenchmarkSnapshot_*  — double-scan snapshot under writers
//
// Nothing records or gates on these numbers: the paper's shapes (all-m
// against majority entry, the Theorem 5 verdicts) are asserted by the
// tests DESIGN.md's reproduction ledger names, and performance is
// recorded only by bench/ (BENCHMARK.json).
package anonmutex_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"anonmutex"
	"anonmutex/internal/amem"
	"anonmutex/internal/id"
	"anonmutex/internal/lowerbound"
	"anonmutex/internal/perm"
	"anonmutex/internal/scenario"
	"anonmutex/internal/xrand"
)

// ---------------------------------------------------------------------------
// Table I: the cost of anonymity at the memory level — reads and writes
// routed through a permutation vs. direct.

func BenchmarkTableI_PermutedAccess(b *testing.B) {
	const m = 7
	mem := amem.New(m)
	g := id.NewGenerator()
	for _, mode := range []string{"identity", "random"} {
		b.Run(mode, func(b *testing.B) {
			var p perm.Perm
			if mode == "identity" {
				p = perm.Identity(m)
			} else {
				p = perm.Random(m, xrand.New(1))
			}
			v, err := mem.NewView(g.MustNew(), p)
			if err != nil {
				b.Fatal(err)
			}
			me := v.Me()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.Write(i%m, me)
				_ = v.Read((i + 3) % m)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Figures 1 and 2: real-lock acquisition cost.

// benchLockSolo measures uncontended sessions. newProcs must create a
// FRESH lock with its handles on every call: the benchmark framework
// re-invokes the body while calibrating b.N, and handle capacity is per
// lock.
func benchLockSolo(b *testing.B, newProcs func(n int) ([]*anonmutex.Process, error)) {
	procs, err := newProcs(1)
	if err != nil {
		b.Fatal(err)
	}
	p := procs[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Lock(); err != nil {
			b.Fatal(err)
		}
		if err := p.Unlock(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchLockContended(b *testing.B, n int, newProcs func(n int) ([]*anonmutex.Process, error)) {
	procs, err := newProcs(n)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var remaining atomic.Int64
	remaining.Store(int64(b.N))
	var wg sync.WaitGroup
	for _, p := range procs {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for remaining.Add(-1) >= 0 {
				if err := p.Lock(); err != nil {
					b.Error(err)
					return
				}
				if err := p.Unlock(); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// anonymousProcs returns a newProcs for benchLockSolo/Contended: every
// call creates a fresh n-process lock running alg and allocates count of
// its handles.
func anonymousProcs(alg anonmutex.Algorithm, n int, opts ...anonmutex.Option) func(count int) ([]*anonmutex.Process, error) {
	return func(count int) ([]*anonmutex.Process, error) {
		l, err := anonmutex.NewLock(alg, n, opts...)
		if err != nil {
			return nil, err
		}
		procs := make([]*anonmutex.Process, count)
		for i := range procs {
			if procs[i], err = l.NewProcess(); err != nil {
				return nil, err
			}
		}
		return procs, nil
	}
}

func BenchmarkFigure1_RWLock(b *testing.B) {
	for _, n := range []int{2, 4} {
		b.Run(fmt.Sprintf("solo/n=%d/m=%d", n, anonmutex.MinRegistersRW(n)), func(b *testing.B) {
			benchLockSolo(b, anonymousProcs(anonmutex.RW, n))
		})
	}
	for _, n := range []int{2, 3} {
		b.Run(fmt.Sprintf("contended/n=%d/m=%d", n, anonmutex.MinRegistersRW(n)), func(b *testing.B) {
			benchLockContended(b, n, anonymousProcs(anonmutex.RW, n))
		})
	}
}

func BenchmarkFigure2_RMWLock(b *testing.B) {
	// n = 8 is the service configuration: lockmgr's default handle count
	// and the ladder's core rung.
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("solo/n=%d/m=%d", n, anonmutex.MinRegistersRMW(n)), func(b *testing.B) {
			benchLockSolo(b, anonymousProcs(anonmutex.RMW, n))
		})
	}
	b.Run("solo/n=2/m=1", func(b *testing.B) {
		benchLockSolo(b, anonymousProcs(anonmutex.RMW, 2, anonmutex.WithRegisters(1)))
	})
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("contended/n=%d/m=%d", n, anonmutex.MinRegistersRMW(n)), func(b *testing.B) {
			benchLockContended(b, n, anonymousProcs(anonmutex.RMW, n))
		})
	}
	b.Run("contended/n=2/m=1", func(b *testing.B) {
		benchLockContended(b, 2, anonymousProcs(anonmutex.RMW, 2, anonmutex.WithRegisters(1)))
	})
}

// ---------------------------------------------------------------------------
// Table II: throughput of the exhaustive verification backing each cell.

func BenchmarkTableII_ModelCheck(b *testing.B) {
	cells := []struct {
		name string
		spec scenario.Spec
	}{
		{"rw-sufficient-m3", scenario.Spec{Algorithm: anonmutex.RW, N: 2, M: 3}},
		{"rw-necessary-m4", scenario.Spec{Algorithm: anonmutex.RW, N: 2, M: 4, Unchecked: true}},
		{"rmw-sufficient-m3", scenario.Spec{Algorithm: anonmutex.RMW, N: 2, M: 3}},
		{"rmw-necessary-m2", scenario.Spec{Algorithm: anonmutex.RMW, N: 2, M: 2, Unchecked: true}},
	}
	for _, c := range cells {
		b.Run(c.name, func(b *testing.B) {
			var states int
			for i := 0; i < b.N; i++ {
				res, err := scenario.Check(c.spec)
				if err != nil {
					b.Fatal(err)
				}
				states = res.States
			}
			b.ReportMetric(float64(states), "states")
		})
	}
}

// ---------------------------------------------------------------------------
// Theorem 5: full ring constructions to their verdicts.

func BenchmarkTheorem5_LockStep(b *testing.B) {
	cases := []struct {
		name string
		alg  anonmutex.Algorithm
		l, m int
	}{
		{"alg2-livelock-l2-m4", anonmutex.RMW, 2, 4},
		{"alg2-livelock-l3-m9", anonmutex.RMW, 3, 9},
		{"alg1-livelock-l2-m4", anonmutex.RW, 2, 4},
		{"greedy-me-break-l3-m6", anonmutex.Greedy, 3, 6},
		{"alg2-progress-l3-m7", anonmutex.RMW, 3, 7},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var rounds int
			for i := 0; i < b.N; i++ {
				v, err := lowerbound.Run(c.alg, c.l, c.m, 0)
				if err != nil {
					b.Fatal(err)
				}
				rounds = v.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds-to-verdict")
		})
	}
}

// ---------------------------------------------------------------------------
// §I-C entry cost: shared-memory steps per acquisition, solo, reported as
// a metric so the all-m vs majority comparison is visible in bench output.

func BenchmarkEntryCost_StepsToEnter(b *testing.B) {
	for _, alg := range []anonmutex.Algorithm{anonmutex.RW, anonmutex.RMW} {
		for _, n := range []int{2, 4, 6} {
			b.Run(fmt.Sprintf("%v/n=%d", alg, n), func(b *testing.B) {
				var steps float64
				for i := 0; i < b.N; i++ {
					m := anonmutex.MinRegistersRW(n)
					res, err := scenario.RunSim(scenario.Spec{
						Algorithm: alg, N: 1, M: m, Unchecked: true, Sessions: 1,
					})
					if err != nil {
						b.Fatal(err)
					}
					steps = float64(res.PerProc[0].LockSteps)
				}
				b.ReportMetric(steps, "steps-to-enter")
			})
		}
	}
}

// ---------------------------------------------------------------------------
// The double-scan snapshot under concurrent writers (the RW model's
// dominant cost).

func BenchmarkSnapshot_DoubleScan(b *testing.B) {
	for _, writers := range []int{0, 1, 2} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			const m = 5
			mem := amem.New(m)
			g := id.NewGenerator()
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				v, err := mem.NewView(g.MustNew(), perm.Identity(m))
				if err != nil {
					b.Fatal(err)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					i := 0
					for {
						select {
						case <-stop:
							return
						default:
							v.Write(i%m, v.Me())
							i++
						}
					}
				}()
			}
			reader, err := mem.NewView(g.MustNew(), perm.Identity(m))
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]id.ID, m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reader.Snapshot(buf)
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
			calls, collects := reader.SnapshotStats()
			b.ReportMetric(float64(collects)/float64(calls), "collects/snapshot")
		})
	}
}
