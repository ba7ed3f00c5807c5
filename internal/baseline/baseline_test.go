package baseline

import (
	"fmt"
	"sync"
	"testing"
)

// allLocks builds one instance of every baseline for n processes.
func allLocks(t *testing.T, n int) []Lock {
	t.Helper()
	bak, err := NewBakery(n)
	if err != nil {
		t.Fatal(err)
	}
	pet, err := NewPeterson(n)
	if err != nil {
		t.Fatal(err)
	}
	return []Lock{NewTTAS(), NewTicket(), bak, pet, NewGo()}
}

// TestMutualExclusionCounter is the standard torture test: n goroutines
// increment an unprotected counter inside the critical section; the total
// is exact iff the lock provides mutual exclusion.
func TestMutualExclusionCounter(t *testing.T) {
	const n, iters = 4, 2000
	for _, l := range allLocks(t, n) {
		l := l
		t.Run(l.Name(), func(t *testing.T) {
			t.Parallel()
			counter := 0
			var wg sync.WaitGroup
			for p := 0; p < n; p++ {
				h, err := l.NewHandle()
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						h.Lock()
						counter++
						h.Unlock()
					}
				}()
			}
			wg.Wait()
			if counter != n*iters {
				t.Fatalf("%s: counter = %d, want %d — mutual exclusion violated", l.Name(), counter, n*iters)
			}
		})
	}
}

// TestCriticalSectionOccupancy tracks occupancy explicitly, catching
// overlaps even when increments happen to be atomic on the platform.
func TestCriticalSectionOccupancy(t *testing.T) {
	const n, iters = 3, 1000
	for _, l := range allLocks(t, n) {
		l := l
		t.Run(l.Name(), func(t *testing.T) {
			t.Parallel()
			inside := 0
			maxInside := 0
			var wg sync.WaitGroup
			for p := 0; p < n; p++ {
				h, err := l.NewHandle()
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						h.Lock()
						inside++
						if inside > maxInside {
							maxInside = inside
						}
						inside--
						h.Unlock()
					}
				}()
			}
			wg.Wait()
			if maxInside > 1 {
				t.Fatalf("%s: %d processes inside the CS simultaneously", l.Name(), maxInside)
			}
		})
	}
}

func TestHandleLimits(t *testing.T) {
	bak, _ := NewBakery(2)
	pet, _ := NewPeterson(2)
	for _, l := range []Lock{bak, pet} {
		for i := 0; i < 2; i++ {
			if _, err := l.NewHandle(); err != nil {
				t.Fatalf("%s: handle %d rejected: %v", l.Name(), i, err)
			}
		}
		if _, err := l.NewHandle(); err == nil {
			t.Errorf("%s: handle beyond capacity accepted", l.Name())
		}
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := NewBakery(0); err == nil {
		t.Error("NewBakery(0) accepted")
	}
	if _, err := NewPeterson(-1); err == nil {
		t.Error("NewPeterson(-1) accepted")
	}
}

func TestSoloAcquisition(t *testing.T) {
	for _, l := range allLocks(t, 1) {
		h, err := l.NewHandle()
		if err != nil {
			t.Fatalf("%s: %v", l.Name(), err)
		}
		for i := 0; i < 100; i++ {
			h.Lock()
			h.Unlock()
		}
	}
}

func TestPetersonOddN(t *testing.T) {
	// Non-power-of-two process counts must work (unused leaves idle).
	for _, n := range []int{3, 5, 6, 7} {
		l, err := NewPeterson(n)
		if err != nil {
			t.Fatal(err)
		}
		counter := 0
		var wg sync.WaitGroup
		for p := 0; p < n; p++ {
			h, err := l.NewHandle()
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 500; i++ {
					h.Lock()
					counter++
					h.Unlock()
				}
			}()
		}
		wg.Wait()
		if counter != n*500 {
			t.Fatalf("n=%d: counter = %d, want %d", n, counter, n*500)
		}
	}
}

func TestTicketIsFIFO(t *testing.T) {
	// With a single goroutine taking tickets alternately for two handles,
	// acquisition order must match ticket order. (Concurrent FIFO-ness is
	// probabilistic; this checks the mechanism.)
	l := NewTicket()
	a, _ := l.NewHandle()
	b, _ := l.NewHandle()
	order := make([]int, 0, 4)
	a.Lock()
	order = append(order, 0)
	a.Unlock()
	b.Lock()
	order = append(order, 1)
	b.Unlock()
	if fmt.Sprint(order) != "[0 1]" {
		t.Fatalf("order %v", order)
	}
}

func TestNamesDistinct(t *testing.T) {
	names := map[string]bool{}
	for _, l := range allLocks(t, 2) {
		if names[l.Name()] {
			t.Errorf("duplicate lock name %q", l.Name())
		}
		names[l.Name()] = true
	}
}
