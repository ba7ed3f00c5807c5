// Package mnum implements the number theory behind the paper's space
// characterization.
//
// The central object is the set
//
//	M(n) = { m : ∀ ℓ, 1 < ℓ ≤ n : gcd(ℓ, m) = 1 }
//
// introduced by Taubenfeld (PODC 2017) and shown by the paper to be a tight
// characterization of the anonymous-memory sizes m for which symmetric
// deadlock-free mutual exclusion is solvable:
//
//   - RW registers:  solvable ⟺ m ∈ M(n) \ {1}  (equivalently m ∈ M(n), m ≥ n)
//   - RMW registers: solvable ⟺ m ∈ M(n)
//
// A useful equivalent form used throughout this package: for m > 1,
// m ∈ M(n) exactly when the smallest prime factor of m is greater than n.
// In particular every member of M(n) other than 1 is strictly greater than
// n, the smallest such member is the smallest prime above n, and M(n) is
// infinite.
package mnum

import "fmt"

// GCD returns the greatest common divisor of a and b by the Euclidean
// algorithm. GCD(0, 0) = 0; otherwise the result is positive. Negative
// inputs are treated by absolute value.
func GCD(a, b int) int {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// InM reports whether m ∈ M(n), i.e. gcd(ℓ, m) = 1 for every ℓ with
// 1 < ℓ ≤ n. It returns false for m < 1. For n < 2 the condition is vacuous
// and every m ≥ 1 is a member.
func InM(n, m int) bool {
	if m < 1 {
		return false
	}
	_, ok := Witness(n, m)
	return !ok
}

// Witness returns the smallest ℓ with 1 < ℓ ≤ n and gcd(ℓ, m) > 1, i.e. a
// witness that m ∉ M(n), together with ok = true. If m ∈ M(n) (no witness
// exists), it returns ok = false.
//
// When a witness exists, the smallest one is always prime: if gcd(ℓ, m) > 1
// then some prime factor p of ℓ also divides m and p ≤ ℓ.
func Witness(n, m int) (l int, ok bool) {
	if m < 1 {
		return 0, false
	}
	for l = 2; l <= n; l++ {
		if GCD(l, m) != 1 {
			return l, true
		}
	}
	return 0, false
}

// SmallestPrimeFactor returns the smallest prime factor of m ≥ 2. It panics
// if m < 2.
func SmallestPrimeFactor(m int) int {
	if m < 2 {
		panic(fmt.Sprintf("mnum: SmallestPrimeFactor(%d): argument must be >= 2", m))
	}
	if m%2 == 0 {
		return 2
	}
	for p := 3; p*p <= m; p += 2 {
		if m%p == 0 {
			return p
		}
	}
	return m
}

// IsPrime reports whether m is prime (trial division; intended for the
// small m used by experiments and tests).
func IsPrime(m int) bool {
	return m >= 2 && SmallestPrimeFactor(m) == m
}

// NextPrimeAfter returns the smallest prime strictly greater than n.
func NextPrimeAfter(n int) int {
	if n < 1 {
		return 2
	}
	for m := n + 1; ; m++ {
		if IsPrime(m) {
			return m
		}
	}
}

// MinRW returns the smallest legal anonymous memory size for the RW-model
// algorithm (Algorithm 1) with n ≥ 2 processes: the smallest m with
// m ∈ M(n) and m ≥ n. By the prime-factor characterization this is the
// smallest prime greater than n. It panics if n < 2.
func MinRW(n int) int {
	if n < 2 {
		panic(fmt.Sprintf("mnum: MinRW(%d): n must be >= 2", n))
	}
	return NextPrimeAfter(n)
}

// MinRMW returns the smallest legal anonymous memory size for the RMW-model
// algorithm (Algorithm 2) with n ≥ 2 processes. M(n) always contains 1 (the
// degenerate single-register case the paper discusses), so this is 1.
func MinRMW(n int) int {
	if n < 2 {
		panic(fmt.Sprintf("mnum: MinRMW(%d): n must be >= 2", n))
	}
	return 1
}

// MinRMWAbove returns the smallest m ∈ M(n) with m > 1 — the smallest
// non-degenerate RMW memory size, equal to MinRW(n).
func MinRMWAbove(n int) int { return MinRW(n) }

// Members returns every m in [lo, hi] with m ∈ M(n), in increasing order.
func Members(n, lo, hi int) []int {
	if lo < 1 {
		lo = 1
	}
	var out []int
	for m := lo; m <= hi; m++ {
		if InM(n, m) {
			out = append(out, m)
		}
	}
	return out
}

// NonMembers returns every m in [lo, hi] with m ∉ M(n), in increasing
// order. These are the sizes for which Theorem 5 applies: each has a
// divisor ℓ with 1 < ℓ ≤ n.
func NonMembers(n, lo, hi int) []int {
	if lo < 1 {
		lo = 1
	}
	var out []int
	for m := lo; m <= hi; m++ {
		if !InM(n, m) {
			out = append(out, m)
		}
	}
	return out
}

// ValidateRW checks the precondition of Algorithm 1: n ≥ 2 processes and
// m ∈ M(n) with m ≥ n (equivalently m ∈ M(n), m ≠ 1). The returned error
// explains which clause fails and, when applicable, names the witness ℓ.
func ValidateRW(n, m int) error {
	if n < 2 {
		return fmt.Errorf("mnum: need n >= 2 processes, got n=%d", n)
	}
	if m < n {
		return fmt.Errorf("mnum: RW model needs m >= n registers (Burns-Lynch), got m=%d < n=%d", m, n)
	}
	if l, bad := Witness(n, m); bad {
		return fmt.Errorf("mnum: m=%d not in M(%d): gcd(%d, %d) = %d > 1 (Theorem 5 applies)", m, n, l, m, GCD(l, m))
	}
	return nil
}

// ValidateRMW checks the precondition of Algorithm 2: n ≥ 2 and m ∈ M(n)
// (m = 1 is allowed; the single register is then effectively
// non-anonymous).
func ValidateRMW(n, m int) error {
	if n < 2 {
		return fmt.Errorf("mnum: need n >= 2 processes, got n=%d", n)
	}
	if m < 1 {
		return fmt.Errorf("mnum: need m >= 1 registers, got m=%d", m)
	}
	if l, bad := Witness(n, m); bad {
		return fmt.Errorf("mnum: m=%d not in M(%d): gcd(%d, %d) = %d > 1 (Theorem 5 applies)", m, n, l, m, GCD(l, m))
	}
	return nil
}

// EqualSplitPossible reports whether cnt ≥ 1 processes can own exactly the
// same number of registers with all m registers owned — i.e. whether
// cnt divides m. The impossibility of an equal split for every
// 1 < cnt ≤ n is precisely why m ∈ M(n) lets Algorithms 1 and 2 break ties:
// when the memory is full, some competitor must be strictly below average.
func EqualSplitPossible(cnt, m int) bool {
	return cnt >= 1 && m >= 1 && m%cnt == 0
}

// BelowAverageExists reports whether, for any way cnt processes can own all
// m registers (each owning ≥ 1), at least one process must own strictly
// fewer than m/cnt. This is equivalent to cnt not dividing m.
func BelowAverageExists(cnt, m int) bool {
	return cnt >= 1 && m >= 1 && !EqualSplitPossible(cnt, m)
}
