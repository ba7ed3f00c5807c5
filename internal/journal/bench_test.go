package journal

import (
	"testing"
	"time"
)

// BenchmarkAppend is the fsync-off hot path a grant pays when
// durability is disabled or deferred: frame encode and buffer append
// under one mutex.
func BenchmarkAppend(b *testing.B) {
	w, _, err := Open(b.TempDir(), Options{Sync: SyncOff, CompactBytes: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	dl := time.Now().Add(time.Hour).UnixNano()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tok := uint64(i + 1)
		w.Append(Record{Op: OpGrant, Name: "bench-key", Token: tok, Deadline: dl})
		w.Append(Record{Op: OpRelease, Name: "bench-key", Token: tok})
	}
}

// BenchmarkCommitInterval is a grant's journal cost under the interval
// policy: Append plus a Commit that only checks the sticky error.
func BenchmarkCommitInterval(b *testing.B) {
	w, _, err := Open(b.TempDir(), Options{Sync: SyncInterval, CompactBytes: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	dl := time.Now().Add(time.Hour).UnixNano()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lsn := w.Append(Record{Op: OpGrant, Name: "bench-key", Token: uint64(i + 1), Deadline: dl})
		if err := w.Commit(lsn); err != nil {
			b.Fatal(err)
		}
		w.Append(Record{Op: OpRelease, Name: "bench-key", Token: uint64(i + 1)})
	}
}

// BenchmarkCommitAlways pays a real fsync per sequential commit — the
// worst case the group-commit path amortizes away under concurrency.
func BenchmarkCommitAlways(b *testing.B) {
	w, _, err := Open(b.TempDir(), Options{Sync: SyncAlways, CompactBytes: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	dl := time.Now().Add(time.Hour).UnixNano()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lsn := w.Append(Record{Op: OpGrant, Name: "bench-key", Token: uint64(i + 1), Deadline: dl})
		if err := w.Commit(lsn); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCommitAlwaysParallel measures group commit: concurrent
// committers share fsyncs, so per-op cost should sit well below one
// fsync once parallelism exceeds one.
func BenchmarkCommitAlwaysParallel(b *testing.B) {
	w, _, err := Open(b.TempDir(), Options{Sync: SyncAlways, CompactBytes: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	dl := time.Now().Add(time.Hour).UnixNano()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			lsn := w.Append(Record{Op: OpGrant, Name: "bench-key", Token: 1, Deadline: dl})
			if err := w.Commit(lsn); err != nil {
				b.Fatal(err)
			}
		}
	})
}
