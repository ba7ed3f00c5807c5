package lockmgr_test

// Manager hot-path benchmarks: uncontended acquire/release on one name,
// try-acquire, and a contended parallel mix. For measuring while working
// on this package:
//
//	go test -bench . -benchmem ./internal/lockmgr
//
// A performance number is recorded only by `bash bench/run.sh`
// (bench/README.md); its `ladder.lockmgr` rung is this package's row.
import (
	"context"
	"fmt"
	"testing"

	"anonmutex/internal/lockmgr"
	"anonmutex/internal/xrand"
)

func benchManager(b *testing.B, cfg lockmgr.Config) *lockmgr.Manager {
	b.Helper()
	mgr, err := lockmgr.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		if err := mgr.Close(); err != nil {
			b.Fatal(err)
		}
	})
	return mgr
}

// BenchmarkAcquireRelease_SoloLease is the uncontended steady-state cycle
// on a single hot name: the path every lockd request takes when the lock
// is free.
func BenchmarkAcquireRelease_SoloLease(b *testing.B) {
	mgr := benchManager(b, lockmgr.Config{})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := mgr.AcquireLeaseCtx(ctx, "bench")
		if err != nil {
			b.Fatal(err)
		}
		if err := mgr.Release(l); err != nil {
			b.Fatal(err)
		}
	}
	if v := mgr.Violations(); v != 0 {
		b.Fatalf("violations = %d", v)
	}
}

// BenchmarkAcquireFast_Solo is the uncontended fast-path probe the lockd
// acquire op takes before falling back to the context machinery, over a
// key count: one hot key, and 4 096 or 16 000 resident keys taken in a
// pre-drawn random order, so that a cycle reaches its key's entry,
// handle, lock and registers at random rather than in a hot loop — the
// price of a resident lock's layout. The table is sized so that every
// key stays resident: no cycle evicts.
func BenchmarkAcquireFast_Solo(b *testing.B) {
	for _, keys := range []int{1, 4096, 16000} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			mgr := benchManager(b, lockmgr.Config{MaxLocksPerShard: 2 * 1024})
			names := make([]string, keys)
			for i := range names {
				names[i] = fmt.Sprintf("key-%05d", i)
			}
			order := make([]string, 1<<16)
			r := xrand.New(uint64(keys))
			for i := range order {
				order[i] = names[r.Intn(keys)]
			}
			cycle := func(name string) {
				l, ok, err := mgr.AcquireFast(name)
				if err != nil {
					b.Fatal(err)
				}
				if !ok {
					b.Fatal("uncontended AcquireFast failed")
				}
				if err := mgr.Release(l); err != nil {
					b.Fatal(err)
				}
			}
			for _, name := range names {
				cycle(name)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle(order[i%len(order)])
			}
			b.StopTimer()
			if c := mgr.Counters(); c.Evictions != 0 || c.ResidentLocks != keys {
				b.Fatalf("%d evictions, %d resident: want all %d keys resident", c.Evictions, c.ResidentLocks, keys)
			}
			if v := mgr.Violations(); v != 0 {
				b.Fatalf("violations = %d", v)
			}
		})
	}
}

// BenchmarkTryAcquire_Solo is the non-blocking probe on a free name.
func BenchmarkTryAcquire_Solo(b *testing.B) {
	mgr := benchManager(b, lockmgr.Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, ok, err := mgr.TryAcquireLease("bench")
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			b.Fatal("uncontended TryAcquire failed")
		}
		if err := mgr.Release(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAcquireRelease_Contended runs P goroutines over a small hot key
// space, exercising shard bookkeeping, lease pooling, and the anonymous
// protocols under real contention.
func BenchmarkAcquireRelease_Contended(b *testing.B) {
	for _, keys := range []int{1, 16} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			mgr := benchManager(b, lockmgr.Config{})
			names := make([]string, keys)
			for i := range names {
				names[i] = fmt.Sprintf("key-%04d", i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					name := names[i%keys]
					i++
					g, err := mgr.AcquireLeaseCtx(context.Background(), name)
					if err != nil {
						b.Error(err)
						return
					}
					if err := mgr.Release(g); err != nil {
						b.Error(err)
						return
					}
				}
			})
			if v := mgr.Violations(); v != 0 {
				b.Fatalf("violations = %d", v)
			}
		})
	}
}

// BenchmarkAcquireRelease_Evicting cycles through twice the default
// resident cap (16 shards of 1 024) in order, so every acquire misses a
// full shard and evicts its coldest name: the path a key space larger
// than the table takes.
func BenchmarkAcquireRelease_Evicting(b *testing.B) {
	mgr := benchManager(b, lockmgr.Config{})
	names := make([]string, 2*16*1024)
	for i := range names {
		names[i] = fmt.Sprintf("evict-%05d", i)
	}
	ctx := context.Background()
	cycle := func(name string) {
		l, err := mgr.AcquireLeaseCtx(ctx, name)
		if err != nil {
			b.Fatal(err)
		}
		if err := mgr.Release(l); err != nil {
			b.Fatal(err)
		}
	}
	for _, name := range names {
		cycle(name)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle(names[i%len(names)])
	}
	b.StopTimer()
	if c := mgr.Counters(); c.Evictions < uint64(b.N) {
		b.Fatalf("%d evictions over %d cycles: the table did not stay full", c.Evictions, b.N)
	}
	if v := mgr.Violations(); v != 0 {
		b.Fatalf("violations = %d", v)
	}
}

// BenchmarkStats measures the counter snapshot path (satellite: it must
// not serialize against the shards' acquire traffic).
func BenchmarkStats(b *testing.B) {
	mgr := benchManager(b, lockmgr.Config{})
	g, err := mgr.AcquireLeaseCtx(context.Background(), "bench")
	if err != nil {
		b.Fatal(err)
	}
	defer mgr.Release(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := mgr.Counters()
		if c.Acquires == 0 {
			b.Fatal("no acquires counted")
		}
	}
}
