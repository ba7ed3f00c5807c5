package lowerbound

import (
	"testing"

	"anonmutex"
	"anonmutex/internal/mset"
)

func TestRunValidation(t *testing.T) {
	if _, err := Run(anonmutex.RW, 1, 4, 100); err == nil {
		t.Error("l=1 accepted")
	}
	if _, err := Run(anonmutex.RW, 2, 0, 100); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := Run(anonmutex.Greedy+1, 2, 4, 100); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

// TestAlg1RingLivelock: Algorithm 1 under the exact Theorem 5 construction
// takes the livelock horn, with the rotational symmetry invariant holding
// at every round.
func TestAlg1RingLivelock(t *testing.T) {
	cases := []struct{ l, m int }{
		{2, 4}, {2, 6}, {2, 8}, {3, 6}, {3, 9}, {4, 8}, {2, 2}, {5, 10},
	}
	for _, tc := range cases {
		v, err := Run(anonmutex.RW, tc.l, tc.m, 0)
		if err != nil {
			t.Fatalf("l=%d m=%d: %v", tc.l, tc.m, err)
		}
		if !v.Applicable {
			t.Fatalf("l=%d m=%d should be applicable", tc.l, tc.m)
		}
		if v.Outcome != OutcomeLivelock {
			t.Errorf("l=%d m=%d: outcome %v, want livelock (rounds %d, entrants %d)",
				tc.l, tc.m, v.Outcome, v.Rounds, v.Entrants)
		}
		if !v.SymmetryHeld {
			t.Errorf("l=%d m=%d: rotational symmetry was broken — the construction is wrong", tc.l, tc.m)
		}
		if v.Step != tc.m/tc.l {
			t.Errorf("l=%d m=%d: step %d, want %d", tc.l, tc.m, v.Step, tc.m/tc.l)
		}
	}
}

// TestAlg2RingLivelock: same for Algorithm 2.
func TestAlg2RingLivelock(t *testing.T) {
	cases := []struct{ l, m int }{
		{2, 2}, {2, 4}, {2, 6}, {3, 3}, {3, 6}, {3, 9}, {4, 8}, {6, 12},
	}
	for _, tc := range cases {
		v, err := Run(anonmutex.RMW, tc.l, tc.m, 0)
		if err != nil {
			t.Fatalf("l=%d m=%d: %v", tc.l, tc.m, err)
		}
		if v.Outcome != OutcomeLivelock {
			t.Errorf("l=%d m=%d: outcome %v, want livelock", tc.l, tc.m, v.Outcome)
		}
		if !v.SymmetryHeld {
			t.Errorf("l=%d m=%d: symmetry broken", tc.l, tc.m)
		}
	}
}

// TestGreedyRingSimultaneousEntry: the strawman takes the other horn — all
// ℓ processes enter the critical section in the same round, and symmetry
// still holds (which is exactly why they all enter together).
func TestGreedyRingSimultaneousEntry(t *testing.T) {
	cases := []struct{ l, m int }{
		{2, 2}, {2, 4}, {3, 6}, {4, 8}, {5, 10},
	}
	for _, tc := range cases {
		v, err := Run(anonmutex.Greedy, tc.l, tc.m, 0)
		if err != nil {
			t.Fatalf("l=%d m=%d: %v", tc.l, tc.m, err)
		}
		if v.Outcome != OutcomeSimultaneousEntry {
			t.Errorf("l=%d m=%d: outcome %v, want simultaneous entry (entrants %d)",
				tc.l, tc.m, v.Outcome, v.Entrants)
		}
		if v.Entrants != tc.l {
			t.Errorf("l=%d m=%d: %d entrants, want all %d", tc.l, tc.m, v.Entrants, tc.l)
		}
		if !v.SymmetryHeld {
			t.Errorf("l=%d m=%d: symmetry broken before entry", tc.l, tc.m)
		}
	}
}

// TestLegalSizesProgress: when ℓ ∤ m the construction does not apply;
// symmetry breaks and somebody enters.
func TestLegalSizesProgress(t *testing.T) {
	cases := []struct {
		alg  anonmutex.Algorithm
		l, m int
	}{
		{anonmutex.RW, 2, 3}, {anonmutex.RW, 2, 5}, {anonmutex.RW, 3, 5}, {anonmutex.RW, 4, 7},
		{anonmutex.RMW, 2, 3}, {anonmutex.RMW, 3, 5}, {anonmutex.RMW, 2, 1}, {anonmutex.RMW, 4, 7},
	}
	for _, tc := range cases {
		v, err := Run(tc.alg, tc.l, tc.m, 200_000)
		if err != nil {
			t.Fatalf("%v l=%d m=%d: %v", tc.alg, tc.l, tc.m, err)
		}
		if tc.m%tc.l == 0 {
			t.Fatalf("bad test case: %d divides %d", tc.l, tc.m)
		}
		if v.Applicable {
			t.Fatalf("%v l=%d m=%d claimed applicable", tc.alg, tc.l, tc.m)
		}
		if v.Outcome != OutcomeEntry {
			t.Errorf("%v l=%d m=%d: outcome %v, want entry (rounds %d)",
				tc.alg, tc.l, tc.m, v.Outcome, v.Rounds)
		}
		if v.Entrants >= tc.l {
			t.Errorf("%v l=%d m=%d: %d simultaneous entrants on a legal configuration",
				tc.alg, tc.l, tc.m, v.Entrants)
		}
	}
}

// TestGridBoundary reproduces the paper's characterization over a grid:
// for every m in range, the construction livelocks exactly when m ∉ M(n).
func TestGridBoundary(t *testing.T) {
	const n = 4
	entries, err := Grid(anonmutex.RMW, n, 1, 30, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 30 {
		t.Fatalf("grid has %d entries, want 30", len(entries))
	}
	for _, e := range entries {
		if e.InM != mset.InM(n, e.M) {
			t.Errorf("m=%d: grid InM=%v disagrees with mset", e.M, e.InM)
		}
		if e.InM {
			if e.Verdict.Outcome != OutcomeEntry {
				t.Errorf("m=%d ∈ M(%d): outcome %v, want entry", e.M, n, e.Verdict.Outcome)
			}
		} else {
			if e.Verdict.Outcome != OutcomeLivelock {
				t.Errorf("m=%d ∉ M(%d) (witness %d): outcome %v, want livelock",
					e.M, n, e.Witness, e.Verdict.Outcome)
			}
			if e.M%e.Witness != 0 {
				t.Errorf("m=%d: witness %d does not divide m", e.M, e.Witness)
			}
			if !e.Verdict.SymmetryHeld {
				t.Errorf("m=%d: symmetry broken in an applicable construction", e.M)
			}
		}
	}
}

func TestGridAlg1Boundary(t *testing.T) {
	const n = 3
	entries, err := Grid(anonmutex.RW, n, 4, 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		want := OutcomeLivelock
		if e.InM {
			want = OutcomeEntry
		}
		if e.Verdict.Outcome != want {
			t.Errorf("alg1 m=%d (InM=%v): outcome %v, want %v", e.M, e.InM, e.Verdict.Outcome, want)
		}
	}
}

func TestGridValidation(t *testing.T) {
	if _, err := Grid(anonmutex.RW, 1, 1, 5, 0); err == nil {
		t.Error("n=1 accepted")
	}
}

func TestStringers(t *testing.T) {
	for _, o := range []Outcome{OutcomeLivelock, OutcomeSimultaneousEntry, OutcomeEntry, OutcomeUndecided, Outcome(99)} {
		if o.String() == "" {
			t.Errorf("empty outcome name for %d", o)
		}
	}
}
