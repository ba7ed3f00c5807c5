// Benchmark harness: one benchmark family per paper artifact (DESIGN.md
// §3). Run with:
//
//	go test -bench=. -benchmem
//
// Families:
//
//	BenchmarkTableI_*    — permutation-translated register access (Table I)
//	BenchmarkFigure1_*   — Algorithm 1 acquisitions, solo and contended
//	BenchmarkFigure2_*   — Algorithm 2 acquisitions, solo and contended
//	BenchmarkTableII_*   — exhaustive model-check throughput per cell
//	BenchmarkTheorem5_*  — lock-step ring construction rounds
//	BenchmarkEntryCost_* — shared-memory steps to enter (reported metric)
//	BenchmarkThroughput_*— anonymous locks vs non-anonymous baselines (E5)
//	BenchmarkSnapshot_*  — double-scan snapshot under writers (E6)
//
// Absolute numbers are machine-dependent; the shapes the paper implies
// (RW ≫ RMW; anonymous ≥ non-anonymous; all-m vs majority entry) are
// asserted in EXPERIMENTS.md from recorded runs.
package anonmutex_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"anonmutex"
	"anonmutex/internal/amem"
	"anonmutex/internal/baseline"
	"anonmutex/internal/id"
	"anonmutex/internal/perm"
	"anonmutex/internal/xrand"
	"anonmutex/sim"
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
func benchLockSolo(b *testing.B, newProcs func(n int) ([]benchProc, error)) {
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

// benchProc is an interface because BenchmarkThroughput_Locks also runs
// the internal/baseline locks through it.
type benchProc interface {
	Lock() error
	Unlock() error
}

func benchLockContended(b *testing.B, n int, newProcs func(n int) ([]benchProc, error)) {
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
func anonymousProcs(alg anonmutex.Algorithm, n int, opts ...anonmutex.Option) func(count int) ([]benchProc, error) {
	return func(count int) ([]benchProc, error) {
		l, err := anonmutex.NewLock(alg, n, opts...)
		if err != nil {
			return nil, err
		}
		procs := make([]benchProc, count)
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
	for _, n := range []int{2, 4} {
		b.Run(fmt.Sprintf("solo/n=%d/m=%d", n, anonmutex.MinRegistersRMW(n)), func(b *testing.B) {
			benchLockSolo(b, anonymousProcs(anonmutex.RMW, n))
		})
	}
	b.Run("solo/n=2/m=1", func(b *testing.B) {
		benchLockSolo(b, anonymousProcs(anonmutex.RMW, 2, anonmutex.WithRegisters(1)))
	})
	for _, n := range []int{2, 4} {
		b.Run(fmt.Sprintf("contended/n=%d/m=%d", n, anonmutex.MinRegistersRMW(n)), func(b *testing.B) {
			benchLockContended(b, n, anonymousProcs(anonmutex.RMW, n))
		})
	}
}

// ---------------------------------------------------------------------------
// Table II: throughput of the exhaustive verification backing each cell.

func BenchmarkTableII_ModelCheck(b *testing.B) {
	cells := []struct {
		name string
		cfg  sim.Config
	}{
		{"rw-sufficient-m3", sim.Config{Algorithm: sim.RW, N: 2, M: 3}},
		{"rw-necessary-m4", sim.Config{Algorithm: sim.RW, N: 2, M: 4, Unchecked: true}},
		{"rmw-sufficient-m3", sim.Config{Algorithm: sim.RMW, N: 2, M: 3}},
		{"rmw-necessary-m2", sim.Config{Algorithm: sim.RMW, N: 2, M: 2, Unchecked: true}},
	}
	for _, c := range cells {
		b.Run(c.name, func(b *testing.B) {
			var states int
			for i := 0; i < b.N; i++ {
				res, err := sim.Check(c.cfg)
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
		alg  sim.Algorithm
		l, m int
	}{
		{"alg2-livelock-l2-m4", sim.RMW, 2, 4},
		{"alg2-livelock-l3-m9", sim.RMW, 3, 9},
		{"alg1-livelock-l2-m4", sim.RW, 2, 4},
		{"greedy-me-break-l3-m6", sim.Greedy, 3, 6},
		{"alg2-progress-l3-m7", sim.RMW, 3, 7},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var rounds int
			for i := 0; i < b.N; i++ {
				v, err := sim.LowerBound(c.alg, c.l, c.m, 0)
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
	for _, alg := range []sim.Algorithm{sim.RW, sim.RMW} {
		for _, n := range []int{2, 4, 6} {
			b.Run(fmt.Sprintf("%v/n=%d", alg, n), func(b *testing.B) {
				var steps float64
				for i := 0; i < b.N; i++ {
					m := anonmutex.MinRegistersRW(n)
					res, err := sim.Run(sim.Config{
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
// E5: throughput against the non-anonymous baselines.

func BenchmarkThroughput_Locks(b *testing.B) {
	const n = 2
	mkBaseline := func(newLock func() (baseline.Lock, error)) func(count int) ([]benchProc, error) {
		return func(count int) ([]benchProc, error) {
			l, err := newLock()
			if err != nil {
				return nil, err
			}
			procs := make([]benchProc, count)
			for i := range procs {
				h, err := l.NewHandle()
				if err != nil {
					return nil, err
				}
				procs[i] = errlessAdapter{h}
			}
			return procs, nil
		}
	}
	cases := []struct {
		name string
		mk   func(count int) ([]benchProc, error)
	}{
		{"anonymous-rw-m3", anonymousProcs(anonmutex.RW, n)},
		{"anonymous-rmw-m3", anonymousProcs(anonmutex.RMW, n)},
		{"anonymous-rmw-m1", anonymousProcs(anonmutex.RMW, n, anonmutex.WithRegisters(1))},
		{"bakery", mkBaseline(func() (baseline.Lock, error) { return baseline.NewBakery(n) })},
		{"peterson-tree", mkBaseline(func() (baseline.Lock, error) { return baseline.NewPeterson(n) })},
		{"ticket", mkBaseline(func() (baseline.Lock, error) { return baseline.NewTicket(), nil })},
		{"ttas", mkBaseline(func() (baseline.Lock, error) { return baseline.NewTTAS(), nil })},
		{"sync.Mutex", mkBaseline(func() (baseline.Lock, error) { return baseline.NewGo(), nil })},
	}
	for _, c := range cases {
		b.Run("contended/"+c.name, func(b *testing.B) {
			benchLockContended(b, n, c.mk)
		})
	}
}

type errlessAdapter struct{ h baseline.Handle }

func (a errlessAdapter) Lock() error   { a.h.Lock(); return nil }
func (a errlessAdapter) Unlock() error { a.h.Unlock(); return nil }

// ---------------------------------------------------------------------------
// E6: the double-scan snapshot under concurrent writers (the RW model's
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
