package mnum

import (
	"testing"
	"testing/quick"
)

func TestGCDTable(t *testing.T) {
	cases := []struct{ a, b, want int }{
		{0, 0, 0},
		{0, 5, 5},
		{5, 0, 5},
		{1, 1, 1},
		{2, 4, 2},
		{4, 2, 2},
		{3, 7, 1},
		{12, 18, 6},
		{18, 12, 6},
		{17, 17, 17},
		{-12, 18, 6},
		{12, -18, 6},
		{-12, -18, 6},
		{270, 192, 6},
		{1 << 20, 1 << 10, 1 << 10},
	}
	for _, tc := range cases {
		if got := GCD(tc.a, tc.b); got != tc.want {
			t.Errorf("GCD(%d, %d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestGCDProperties(t *testing.T) {
	f := func(a, b int16) bool {
		x, y := int(a), int(b)
		g := GCD(x, y)
		if g != GCD(y, x) {
			return false // commutative
		}
		if g < 0 {
			return false // non-negative
		}
		if x == 0 && y == 0 {
			return g == 0
		}
		if g == 0 {
			return false
		}
		ax, ay := x, y
		if ax < 0 {
			ax = -ax
		}
		if ay < 0 {
			ay = -ay
		}
		return ax%g == 0 && ay%g == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestGCDDivisorIsGreatest(t *testing.T) {
	// Every common divisor of a and b divides gcd(a,b).
	for a := 1; a <= 60; a++ {
		for b := 1; b <= 60; b++ {
			g := GCD(a, b)
			for d := 1; d <= a && d <= b; d++ {
				if a%d == 0 && b%d == 0 && g%d != 0 {
					t.Fatalf("common divisor %d of (%d,%d) does not divide gcd %d", d, a, b, g)
				}
			}
		}
	}
}

func TestInMPaperValues(t *testing.T) {
	// M(2) = odd numbers. M(3) = numbers coprime to 2 and 3.
	cases := []struct {
		n, m int
		want bool
	}{
		{2, 1, true}, {2, 2, false}, {2, 3, true}, {2, 4, false}, {2, 5, true},
		{2, 9, true}, {2, 15, true}, {2, 16, false},
		{3, 1, true}, {3, 5, true}, {3, 6, false}, {3, 7, true}, {3, 9, false},
		{3, 25, true}, {3, 35, true},
		{4, 5, true}, {4, 6, false}, {4, 7, true}, {4, 25, true}, {4, 15, false},
		{6, 7, true}, {6, 35, false}, {6, 49, true}, {6, 11, true},
		{1, 1, true}, {1, 2, true}, {1, 100, true}, // vacuous condition
		{5, 0, false}, {5, -3, false}, // invalid m
	}
	for _, tc := range cases {
		if got := InM(tc.n, tc.m); got != tc.want {
			t.Errorf("InM(%d, %d) = %v, want %v", tc.n, tc.m, got, tc.want)
		}
	}
}

func TestInMPrimeFactorCharacterization(t *testing.T) {
	// For m > 1: m ∈ M(n) iff smallest prime factor of m exceeds n.
	for n := 2; n <= 12; n++ {
		for m := 2; m <= 300; m++ {
			want := SmallestPrimeFactor(m) > n
			if got := InM(n, m); got != want {
				t.Errorf("InM(%d, %d) = %v, but smallest prime factor is %d", n, m, got, SmallestPrimeFactor(m))
			}
		}
	}
}

func TestOneAlwaysInM(t *testing.T) {
	for n := 1; n <= 100; n++ {
		if !InM(n, 1) {
			t.Errorf("1 not in M(%d)", n)
		}
	}
}

func TestPrimesAboveNInM(t *testing.T) {
	f := func(nRaw, mRaw uint8) bool {
		n := int(nRaw)%20 + 2
		m := int(mRaw) + n + 1
		if !IsPrime(m) {
			return true // only testing primes > n
		}
		return InM(n, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestMIsInfiniteSample(t *testing.T) {
	// M(n) contains all primes > n, so Members over a long range is nonempty.
	for n := 2; n <= 10; n++ {
		if len(Members(n, n+1, n*n+100)) == 0 {
			t.Errorf("no members of M(%d) found in a long range", n)
		}
	}
}

func TestWitness(t *testing.T) {
	cases := []struct {
		n, m     int
		wantL    int
		wantBool bool
	}{
		{2, 4, 2, true},
		{4, 6, 2, true},
		{3, 9, 3, true},
		{4, 15, 3, true},
		{6, 35, 5, true},
		{6, 49, 7, false}, // 7 > 6 so no witness
		{2, 3, 0, false},
		{5, 1, 0, false},
		{10, 121, 11, false}, // 11 > 10
	}
	for _, tc := range cases {
		l, ok := Witness(tc.n, tc.m)
		if ok != tc.wantBool || (ok && l != tc.wantL) {
			t.Errorf("Witness(%d, %d) = (%d, %v), want (%d, %v)", tc.n, tc.m, l, ok, tc.wantL, tc.wantBool)
		}
	}
}

func TestWitnessIsPrimeAndDividesGCD(t *testing.T) {
	for n := 2; n <= 12; n++ {
		for m := 1; m <= 200; m++ {
			l, ok := Witness(n, m)
			if !ok {
				continue
			}
			if !IsPrime(l) {
				t.Errorf("Witness(%d, %d) = %d is not prime", n, m, l)
			}
			if GCD(l, m) == 1 {
				t.Errorf("Witness(%d, %d) = %d is coprime to m", n, m, l)
			}
		}
	}
}

func TestWitnessDividesM(t *testing.T) {
	for n := 2; n <= 8; n++ {
		for m := 1; m <= 60; m++ {
			if l, ok := Witness(n, m); ok && m%l != 0 {
				t.Errorf("Witness(%d, %d) = %d does not divide m", n, m, l)
			}
		}
	}
}

func TestSmallestPrimeFactor(t *testing.T) {
	cases := []struct{ m, want int }{
		{2, 2}, {3, 3}, {4, 2}, {9, 3}, {15, 3}, {35, 5}, {49, 7},
		{97, 97}, {121, 11}, {143, 11}, {2 * 3 * 5 * 7, 2},
	}
	for _, tc := range cases {
		if got := SmallestPrimeFactor(tc.m); got != tc.want {
			t.Errorf("SmallestPrimeFactor(%d) = %d, want %d", tc.m, got, tc.want)
		}
	}
}

func TestSmallestPrimeFactorPanics(t *testing.T) {
	for _, m := range []int{1, 0, -5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SmallestPrimeFactor(%d) did not panic", m)
				}
			}()
			SmallestPrimeFactor(m)
		}()
	}
}

func TestIsPrime(t *testing.T) {
	primes := map[int]bool{2: true, 3: true, 5: true, 7: true, 11: true, 13: true, 97: true, 101: true}
	for m := -3; m <= 101; m++ {
		want := primes[m]
		if m > 1 && !want {
			// verify by trial division
			want = true
			for d := 2; d*d <= m; d++ {
				if m%d == 0 {
					want = false
					break
				}
			}
		}
		if got := IsPrime(m); got != want {
			t.Errorf("IsPrime(%d) = %v, want %v", m, got, want)
		}
	}
}

func TestNextPrimeAfter(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 2}, {1, 2}, {2, 3}, {3, 5}, {4, 5}, {5, 7}, {6, 7},
		{7, 11}, {10, 11}, {13, 17}, {100, 101},
	}
	for _, tc := range cases {
		if got := NextPrimeAfter(tc.n); got != tc.want {
			t.Errorf("NextPrimeAfter(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestMinRW(t *testing.T) {
	cases := []struct{ n, want int }{
		{2, 3}, {3, 5}, {4, 5}, {5, 7}, {6, 7}, {7, 11}, {8, 11}, {10, 11}, {12, 13},
	}
	for _, tc := range cases {
		got := MinRW(tc.n)
		if got != tc.want {
			t.Errorf("MinRW(%d) = %d, want %d", tc.n, got, tc.want)
		}
		if err := ValidateRW(tc.n, got); err != nil {
			t.Errorf("ValidateRW(%d, MinRW) failed: %v", tc.n, err)
		}
		// Minimality: nothing smaller (and >= n) validates.
		for m := tc.n; m < got; m++ {
			if ValidateRW(tc.n, m) == nil {
				t.Errorf("m=%d < MinRW(%d) unexpectedly validates", m, tc.n)
			}
		}
	}
}

func TestMinRWPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MinRW(1) did not panic")
		}
	}()
	MinRW(1)
}

func TestMinRMW(t *testing.T) {
	for n := 2; n <= 20; n++ {
		if got := MinRMW(n); got != 1 {
			t.Errorf("MinRMW(%d) = %d, want 1", n, got)
		}
		if got := MinRMWAbove(n); got != MinRW(n) {
			t.Errorf("MinRMWAbove(%d) = %d, want %d", n, got, MinRW(n))
		}
	}
}

func TestMembersNonMembersPartition(t *testing.T) {
	for n := 2; n <= 8; n++ {
		lo, hi := 1, 120
		mem := Members(n, lo, hi)
		non := NonMembers(n, lo, hi)
		if len(mem)+len(non) != hi-lo+1 {
			t.Fatalf("n=%d: partition sizes %d + %d != %d", n, len(mem), len(non), hi-lo+1)
		}
		seen := make(map[int]bool)
		for _, m := range mem {
			if !InM(n, m) {
				t.Errorf("Members(%d) contains non-member %d", n, m)
			}
			seen[m] = true
		}
		for _, m := range non {
			if InM(n, m) {
				t.Errorf("NonMembers(%d) contains member %d", n, m)
			}
			if seen[m] {
				t.Errorf("%d in both Members and NonMembers for n=%d", m, n)
			}
		}
	}
}

func TestMembersM2AreOdd(t *testing.T) {
	for _, m := range Members(2, 1, 101) {
		if m%2 == 0 {
			t.Errorf("M(2) member %d is even", m)
		}
	}
	if got, want := len(Members(2, 1, 101)), 51; got != want {
		t.Errorf("|M(2) ∩ [1,101]| = %d, want %d", got, want)
	}
	if got := Members(2, 1, 9); len(got) != 5 { // 1,3,5,7,9
		t.Errorf("Members(2, 1, 9) = %v", got)
	}
	if got := NonMembers(2, 1, 9); len(got) != 4 { // 2,4,6,8
		t.Errorf("NonMembers(2, 1, 9) = %v", got)
	}
}

func TestValidateRW(t *testing.T) {
	cases := []struct {
		n, m   int
		wantOK bool
	}{
		{2, 3, true},
		{2, 5, true},
		{2, 2, false}, // m not coprime with 2, also m==n
		{2, 4, false}, // gcd(2,4)
		{2, 1, false}, // m < n
		{3, 5, true},
		{3, 4, false},  // gcd(2,4)
		{3, 3, false},  // gcd(3,3)
		{4, 25, true},  // composite member: 25 = 5*5, 5 > 4
		{4, 35, true},  // 5*7 both > 4
		{6, 35, false}, // 5 <= 6 divides 35
		{1, 3, false},  // n too small
		{4, 0, false},
	}
	for _, tc := range cases {
		err := ValidateRW(tc.n, tc.m)
		if (err == nil) != tc.wantOK {
			t.Errorf("ValidateRW(%d, %d) error = %v, want ok=%v", tc.n, tc.m, err, tc.wantOK)
		}
	}
}

func TestValidateRMW(t *testing.T) {
	cases := []struct {
		n, m   int
		wantOK bool
	}{
		{2, 1, true}, // the degenerate single-register case is legal for RMW
		{2, 3, true},
		{2, 2, false},
		{3, 1, true},
		{3, 7, true},
		{3, 6, false},
		{5, 49, true},
		{7, 49, false},
		{1, 1, false}, // n too small
		{3, 0, false},
	}
	for _, tc := range cases {
		err := ValidateRMW(tc.n, tc.m)
		if (err == nil) != tc.wantOK {
			t.Errorf("ValidateRMW(%d, %d) error = %v, want ok=%v", tc.n, tc.m, err, tc.wantOK)
		}
	}
}

func TestValidateRWImpliesGreaterThanN(t *testing.T) {
	// The paper notes m ∈ M(n), m ≥ n, n ≥ 2 forces m > n.
	for n := 2; n <= 10; n++ {
		for m := 1; m <= 200; m++ {
			if ValidateRW(n, m) == nil && m <= n {
				t.Errorf("ValidateRW(%d, %d) passed with m <= n", n, m)
			}
		}
	}
}

func TestEqualSplitPossible(t *testing.T) {
	cases := []struct {
		cnt, m int
		want   bool
	}{
		{2, 4, true}, {2, 3, false}, {3, 9, true}, {3, 5, false},
		{1, 7, true}, {4, 8, true}, {5, 7, false}, {0, 5, false}, {2, 0, false},
	}
	for _, tc := range cases {
		if got := EqualSplitPossible(tc.cnt, tc.m); got != tc.want {
			t.Errorf("EqualSplitPossible(%d, %d) = %v, want %v", tc.cnt, tc.m, got, tc.want)
		}
	}
}

func TestTieBreakGuarantee(t *testing.T) {
	// The algorithmic heart of the paper: if m ∈ M(n), then for every
	// number of competitors cnt with 1 < cnt <= n, an equal split of the m
	// registers is impossible, so somebody is below average and must back
	// off.
	for n := 2; n <= 10; n++ {
		for _, m := range Members(n, 2, 250) {
			for cnt := 2; cnt <= n; cnt++ {
				if !BelowAverageExists(cnt, m) {
					t.Errorf("m=%d ∈ M(%d) but cnt=%d can split evenly", m, n, cnt)
				}
			}
		}
	}
}

func TestNonMemberHasEqualSplit(t *testing.T) {
	// Conversely, m ∉ M(n) (m ≥ 1) admits some cnt ≤ n dividing m: the
	// Theorem 5 adversary uses exactly that ℓ.
	for n := 2; n <= 10; n++ {
		for _, m := range NonMembers(n, 1, 250) {
			l, ok := Witness(n, m)
			if !ok {
				t.Fatalf("NonMembers returned m=%d with no witness for n=%d", m, n)
			}
			if m%l != 0 {
				// Witness guarantees gcd > 1; for the ring construction we
				// need a divisor. The smallest prime witness always divides m.
				t.Errorf("witness %d does not divide m=%d (n=%d)", l, m, n)
			}
		}
	}
}

func TestQuickValidateConsistency(t *testing.T) {
	f := func(nRaw, mRaw uint8) bool {
		n := int(nRaw)%10 + 2
		m := int(mRaw)%150 + 1
		rw := ValidateRW(n, m) == nil
		rmw := ValidateRMW(n, m) == nil
		// RW-legal implies RMW-legal (RW has the extra m >= n clause).
		if rw && !rmw {
			return false
		}
		// RMW-legal and m >= n implies RW-legal.
		if rmw && m >= n && !rw {
			return false
		}
		// Both agree with InM up to their extra clauses.
		return rmw == InM(n, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}
