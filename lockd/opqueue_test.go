package lockd

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"anonmutex/lockd/wire"
)

// TestOpQueueStress holds opQueue to the invariant written at its
// declaration. One producer pushes 1e5 items, yielding at random so that
// consumers catch up, and starts a consumer goroutine exactly when push
// reports the 0 → 1 transition; a consumer pops, settles in batches of a
// random size, and exits exactly when settle tells it the debt is back
// to zero — so consumers are spawned and retired thousands of times.
// Every item must come out exactly once and in order, no two consumers
// may be alive at once, a consumer must never find the queue empty while
// it has nothing to settle, and whenever the producer sees the queue
// idle everything it pushed must already have been consumed. next, the
// consumers' cursor, is deliberately a plain variable: under -race it is
// the queue's mutex alone that orders one consumer's last write before
// the next consumer's (and the producer's) read. The first subtest runs
// everything on one scheduler thread; the second adds a thread that
// stops the world in a loop, so producer and consumer are preempted at
// arbitrary instructions inside the queue (the schedule
// TestPoolOneKeyStress in internal/lockmgr uses).
func TestOpQueueStress(t *testing.T) {
	const total = 100000
	run := func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		var q opQueue
		var wg sync.WaitGroup
		var alive atomic.Int32
		next, spawns := 0, 0
		consume := func(batch int) {
			defer wg.Done()
			if n := alive.Add(1); n != 1 {
				t.Errorf("%d consumers alive at once", n)
				return
			}
			unsettled := 0
			for {
				req, ok := q.tryPop()
				if ok {
					if int(req.TimeoutMS) != next {
						t.Errorf("popped %d, want %d", req.TimeoutMS, next)
						return
					}
					next++
					unsettled++
					if unsettled < batch {
						continue
					}
				} else if unsettled == 0 {
					t.Error("a live consumer found nothing queued and nothing to settle")
					return
				}
				alive.Add(-1)
				if q.settle(unsettled) {
					return
				}
				alive.Add(1)
				unsettled = 0
			}
		}
		yield := 1 + rng.Intn(64)
		for sent := 0; sent < total; sent++ {
			if q.idle() && next != sent {
				t.Fatalf("queue idle with %d of %d pushed items consumed", next, sent)
			}
			if q.push(wire.Request{TimeoutMS: int64(sent)}) {
				spawns++
				wg.Add(1)
				go consume(1 + rng.Intn(8))
			}
			if sent%yield == 0 {
				runtime.Gosched() // let the consumer catch up, or not quite
				yield = 1 + rng.Intn(64)
			}
		}
		wg.Wait()
		if next != total || !q.idle() {
			t.Fatalf("after the last consumer exited: %d of %d items consumed, idle = %v", next, total, q.idle())
		}
		if _, ok := q.tryPop(); ok {
			t.Fatal("tryPop found an item in an idle queue")
		}
		if spawns < 100 {
			t.Fatalf("only %d consumers were ever started; the test means to retire them by the thousand", spawns)
		}
		t.Logf("%d consumers started and retired", spawns)
	}
	t.Run("one thread", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		run(t)
	})
	t.Run("preempted", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ms runtime.MemStats
			for {
				select {
				case <-stop:
					return
				default:
					runtime.ReadMemStats(&ms) // stops the world
				}
			}
		}()
		run(t)
		close(stop)
		wg.Wait()
	})
}
