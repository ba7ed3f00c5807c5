package id

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestNoneProperties(t *testing.T) {
	if !None.IsNone() {
		t.Error("None.IsNone() = false")
	}
	if !None.Equal(None) {
		t.Error("None not Equal to itself")
	}
	var zero ID
	if !zero.Equal(None) {
		t.Error("zero value ID is not None")
	}
	if None.String() != "⊥" {
		t.Errorf("None.String() = %q, want ⊥", None.String())
	}
}

func TestGeneratorUniqueness(t *testing.T) {
	g := NewGenerator()
	const n = 1000
	ids := make([]ID, n)
	for i := range ids {
		ids[i] = g.MustNew()
	}
	for i := 0; i < n; i++ {
		if ids[i].IsNone() {
			t.Fatalf("generator issued None at %d", i)
		}
		for j := i + 1; j < n; j++ {
			if ids[i].Equal(ids[j]) {
				t.Fatalf("identities %d and %d are equal", i, j)
			}
		}
	}
}

func TestGeneratorExhaustion(t *testing.T) {
	g := NewGenerator()
	for i := 0; i < MaxIDs; i++ {
		if _, err := g.New(); err != nil {
			t.Fatalf("unexpected exhaustion at %d: %v", i, err)
		}
	}
	if _, err := g.New(); err == nil {
		t.Fatal("expected exhaustion error after MaxIDs identities")
	}
}

// TestSequentialMatchesGenerator: Sequential(k) is the identity a zero
// Generator issues (k+1)-th, for every k it can issue, and an error past
// the last.
func TestSequentialMatchesGenerator(t *testing.T) {
	var g Generator
	for k := 0; k < MaxIDs; k++ {
		want := g.MustNew()
		got, err := Sequential(k)
		if err != nil || !got.Equal(want) {
			t.Fatalf("Sequential(%d) = %v, %v; the generator issued %v", k, got, err, want)
		}
	}
	for _, k := range []int{-1, MaxIDs} {
		if _, err := Sequential(k); err == nil {
			t.Errorf("Sequential(%d) issued an identity", k)
		}
	}
}

func TestGeneratorConcurrent(t *testing.T) {
	g := NewGenerator()
	const workers, per = 8, 200
	var mu sync.Mutex
	seen := make(map[uint16]bool, workers*per)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]ID, 0, per)
			for i := 0; i < per; i++ {
				local = append(local, g.MustNew())
			}
			mu.Lock()
			defer mu.Unlock()
			for _, v := range local {
				h := Handle(v)
				if seen[h] {
					t.Errorf("duplicate identity handle %d", h)
				}
				seen[h] = true
			}
		}()
	}
	wg.Wait()
	if len(seen) != workers*per {
		t.Fatalf("got %d distinct ids, want %d", len(seen), workers*per)
	}
}

func TestShuffledGeneratorUnique(t *testing.T) {
	g := NewShuffledGenerator(42)
	seen := make(map[uint16]bool)
	for i := 0; i < 5000; i++ {
		v := g.MustNew()
		h := Handle(v)
		if h == 0 {
			t.Fatal("shuffled generator issued None handle")
		}
		if seen[h] {
			t.Fatalf("duplicate handle %d at draw %d", h, i)
		}
		seen[h] = true
	}
}

func TestShuffledGeneratorDeterministic(t *testing.T) {
	a, b := NewShuffledGenerator(7), NewShuffledGenerator(7)
	for i := 0; i < 100; i++ {
		if !a.MustNew().Equal(b.MustNew()) {
			t.Fatal("same-seed shuffled generators diverged")
		}
	}
	c := NewShuffledGenerator(8)
	diff := false
	d := NewShuffledGenerator(7)
	for i := 0; i < 100; i++ {
		if !c.MustNew().Equal(d.MustNew()) {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different-seed shuffled generators issued identical streams")
	}
}

func TestHandleRoundTrip(t *testing.T) {
	f := func(h uint16) bool {
		return Handle(FromHandle(h)) == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFromHandleZeroIsNone(t *testing.T) {
	if !FromHandle(0).IsNone() {
		t.Error("FromHandle(0) is not None")
	}
}

func TestNewN(t *testing.T) {
	g := NewGenerator()
	ids, err := g.NewN(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 5 {
		t.Fatalf("NewN(5) returned %d ids", len(ids))
	}
	for i := range ids {
		for j := i + 1; j < len(ids); j++ {
			if ids[i].Equal(ids[j]) {
				t.Fatal("NewN returned duplicates")
			}
		}
	}
}

func TestStringDistinct(t *testing.T) {
	g := NewGenerator()
	a, b := g.MustNew(), g.MustNew()
	if a.String() == b.String() {
		t.Errorf("distinct ids render identically: %q", a.String())
	}
}

func TestRelabelingBijection(t *testing.T) {
	g := NewGenerator()
	from, _ := g.NewN(4)
	to, _ := g.NewN(4)
	r, err := NewRelabeling(from, to)
	if err != nil {
		t.Fatal(err)
	}
	for i := range from {
		if !r.Apply(from[i]).Equal(to[i]) {
			t.Errorf("Apply(from[%d]) != to[%d]", i, i)
		}
	}
	if !r.Apply(None).IsNone() {
		t.Error("relabeling moved None")
	}
	outside := g.MustNew()
	if !r.Apply(outside).Equal(outside) {
		t.Error("relabeling moved identity outside domain")
	}
}

func TestRelabelingErrors(t *testing.T) {
	g := NewGenerator()
	a, b, c := g.MustNew(), g.MustNew(), g.MustNew()
	cases := []struct {
		name     string
		from, to []ID
	}{
		{"length mismatch", []ID{a}, []ID{b, c}},
		{"dup source", []ID{a, a}, []ID{b, c}},
		{"dup target", []ID{a, b}, []ID{c, c}},
		{"none source", []ID{None}, []ID{b}},
		{"none target", []ID{a}, []ID{None}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewRelabeling(tc.from, tc.to); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestEqualIsEquivalenceRelation(t *testing.T) {
	g := NewGenerator()
	ids := append([]ID{None}, mustN(t, g, 10)...)
	for _, a := range ids {
		if !a.Equal(a) {
			t.Errorf("Equal not reflexive for %v", a)
		}
		for _, b := range ids {
			if a.Equal(b) != b.Equal(a) {
				t.Errorf("Equal not symmetric for %v, %v", a, b)
			}
		}
	}
}

func mustN(t *testing.T, g *Generator, n int) []ID {
	t.Helper()
	ids, err := g.NewN(n)
	if err != nil {
		t.Fatal(err)
	}
	return ids
}
