package lockd

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// TestOpQueueStress holds opQueue to the invariant written at its
// declaration: one producer pushing and then closing, one consumer
// mixing tryPop and pop, every item out exactly once and in order, and
// done reported only after the drain. Queues are opened and closed at
// random lengths until 1e5 items have gone through. The first subtest
// runs both sides on one scheduler thread; the second adds a thread that
// stops the world in a loop, so the two are preempted at arbitrary
// instructions inside the queue (the schedule TestPoolOneKeyStress in
// internal/lockmgr uses).
func TestOpQueueStress(t *testing.T) {
	const total = 100000
	run := func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		for sent := 0; sent < total; {
			n, yield := rng.Intn(2000), 1+rng.Intn(64)
			q := newOpQueue[int]()
			go func() {
				for i := 0; i < n; i++ {
					q.push(sent + i)
					if i%yield == 0 {
						runtime.Gosched() // let the consumer see the queue part full
					}
				}
				q.close()
			}()
			next := sent
			for i := 0; ; i++ {
				v, ok := q.tryPop()
				if !ok && i%3 != 0 {
					continue // spin on tryPop two turns in three, park on the third
				}
				if !ok {
					if v, ok = q.pop(); !ok {
						break
					}
				}
				if v != next {
					t.Fatalf("popped %d, want %d", v, next)
				}
				next++
			}
			if next != sent+n {
				t.Fatalf("queue reported done after %d of %d items", next-sent, n)
			}
			if _, ok := q.tryPop(); ok {
				t.Fatal("tryPop found an item after pop reported done")
			}
			if _, ok := q.pop(); ok {
				t.Fatal("pop found an item after it reported done")
			}
			sent += n
		}
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
