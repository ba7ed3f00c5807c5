package workload

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func mustNormalize(t *testing.T, s Spec) Spec {
	t.Helper()
	n, err := s.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestSpecNormalizeDefaults(t *testing.T) {
	s := mustNormalize(t, Spec{})
	if s.Profile != "uniform" || s.Keys.Dist != KeyUniform || s.Arrival.Process != ArrivalClosed {
		t.Errorf("defaults not filled: %+v", s)
	}
	if s.Ops.Lock != 1 || s.Ops.Try != 0 || s.Ops.Timed != 0 {
		t.Errorf("empty op mix should default to pure locks: %+v", s.Ops)
	}
	// A bare timeout means every acquire is deadline-bounded.
	s = mustNormalize(t, Spec{Ops: OpMix{TimeoutMS: 5}})
	if s.Ops.Timed != 1 || s.Ops.Lock != 0 {
		t.Errorf("bare timeout_ms should imply timed=1: %+v", s.Ops)
	}
	if s.Ops.Timeout() != 5*time.Millisecond {
		t.Errorf("Timeout() = %v", s.Ops.Timeout())
	}
	// Normalize is idempotent (the registry stores normalized specs).
	again := mustNormalize(t, s)
	if again != s {
		t.Errorf("Normalize not idempotent:\n  once:  %+v\n  twice: %+v", s, again)
	}
}

func TestSpecNormalizeRejects(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"unknown profile", Spec{Profile: "pareto"}, "unknown profile"},
		{"parseable unknown profile", Spec{Profile: "profile(9)"}, "no built-in profile"},
		{"unknown key dist", Spec{Keys: KeySpec{Dist: "pareto"}}, "unknown key distribution"},
		{"unknown arrival", Spec{Arrival: ArrivalSpec{Process: "fifo"}}, "unknown arrival process"},
		{"open without rate", Spec{Arrival: ArrivalSpec{Process: ArrivalPoisson}}, "rate_per_sec"},
		{"timed without timeout", Spec{Ops: OpMix{Timed: 1}}, "timeout_ms"},
		{"negative base", Spec{BaseCS: -1}, "negative base"},
		{"negative weight", Spec{Ops: OpMix{Lock: -1}}, "negative op-mix"},
		{"bad hot frac", Spec{Keys: KeySpec{Dist: KeyHotset, HotFrac: 1.5}}, "hot_frac"},
		{"bad zipf s", Spec{Keys: KeySpec{Dist: KeyZipf, ZipfS: -2}}, "zipf_s"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.spec.Normalize()
			if err == nil {
				t.Fatalf("Normalize(%+v) accepted an invalid spec", tc.spec)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestSpecParseJSON(t *testing.T) {
	spec, err := ParseJSON([]byte(`{
		"profile": "bursty", "base_cs": 3, "seed": 7,
		"keys": {"dist": "zipf", "zipf_s": 1.2},
		"arrival": {"process": "poisson", "rate_per_sec": 1000},
		"ops": {"lock": 0.5, "timed": 0.5, "timeout_ms": 2.5}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Keys.Dist != KeyZipf || !spec.Open() || spec.Ops.Timed != 0.5 {
		t.Errorf("parsed spec: %+v", spec)
	}
	data, err := spec.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if back != spec {
		t.Errorf("round trip changed the spec:\n  orig: %+v\n  back: %+v", spec, back)
	}

	// Unknown fields and unknown names fail loudly, never default.
	if _, err := ParseJSON([]byte(`{"profle": "uniform"}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := ParseJSON([]byte(`{"profile": "spiky"}`)); err == nil {
		t.Error("unknown profile name accepted")
	}
	if _, err := ParseJSON([]byte(`{"keys": {"dist": "pareto"}}`)); err == nil {
		t.Error("unknown key distribution accepted")
	}
}

func TestProfileStringParseRoundTrip(t *testing.T) {
	// Every value — known or not — must render to a token ParseProfile
	// inverts exactly.
	for _, p := range []Profile{Uniform, Bursty, Skewed, Profile(0), Profile(9), Profile(255)} {
		tok := p.String()
		back, err := ParseProfile(tok)
		if err != nil {
			t.Fatalf("ParseProfile(%q): %v", tok, err)
		}
		if back != p {
			t.Errorf("round trip %v → %q → %v", p, tok, back)
		}
	}
	if _, err := ParseProfile("pareto"); err == nil {
		t.Error("ParseProfile accepted an unknown name")
	}
	if _, err := ParseProfile("profile(x)"); err == nil {
		t.Error("ParseProfile accepted a malformed token")
	}
}

func TestSourceDeterminism(t *testing.T) {
	spec := mustNormalize(t, Spec{
		Profile: "bursty", BaseCS: 4, BaseRemainder: 6, Seed: 42,
		Keys: KeySpec{Dist: KeyZipf, ZipfS: 1.1},
		Ops:  OpMix{Lock: 0.6, Try: 0.2, Timed: 0.2, TimeoutMS: 1},
	})
	a, err := TraceOps(spec, 3, 16, 500)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TraceOps(spec, 3, 16, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical spec+stream produced different traces")
	}
	c, _ := TraceOps(spec, 4, 16, 500)
	if reflect.DeepEqual(a, c) {
		t.Fatal("distinct streams produced identical traces")
	}
}

// TestSourceStreamIndependence pins the property the cross-consumer
// replay tests build on: the session subsequence does not depend on
// whether keys and ops are drawn in between (each generator has its own
// stream).
func TestSourceStreamIndependence(t *testing.T) {
	spec := mustNormalize(t, Spec{Profile: "bursty", BaseCS: 4, BaseRemainder: 6, Seed: 11})
	interleaved := NewSource(spec, 2)
	pure := NewSource(spec, 2)
	for i := 0; i < 200; i++ {
		interleaved.PickKey(8)
		interleaved.NextOp()
		got := interleaved.NextSession()
		want := pure.NextSession()
		if got != want {
			t.Fatalf("session %d diverged: interleaved %+v, pure %+v", i, got, want)
		}
	}
}

func TestSpecPlanMatchesSessionStream(t *testing.T) {
	spec := mustNormalize(t, Spec{Profile: "skewed", BaseCS: 5, BaseRemainder: 10, Seed: 3})
	plan, err := SpecPlan(spec, 3, 40)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plan {
		src := NewSource(spec, uint64(i))
		for s, sess := range plan[i] {
			if want := src.NextSession(); sess != want {
				t.Fatalf("plan[%d][%d] = %+v, want %+v", i, s, sess, want)
			}
		}
	}
}

// keyFreqs draws n picks and returns the per-key counts.
func keyFreqs(t *testing.T, spec Spec, nkeys, n int) []int {
	t.Helper()
	src := NewSource(mustNormalize(t, spec), 0)
	freq := make([]int, nkeys)
	for i := 0; i < n; i++ {
		freq[src.PickKey(nkeys)]++
	}
	return freq
}

// chiSquare computes Σ (observed-expected)²/expected against the given
// probability vector.
func chiSquare(freq []int, prob []float64, n int) float64 {
	x := 0.0
	for i, f := range freq {
		e := prob[i] * float64(n)
		d := float64(f) - e
		x += d * d / e
	}
	return x
}

// TestZipfFrequencies is the statistical sanity check for the zipf
// distribution at a fixed seed: the empirical frequencies must track the
// theoretical 1/(k+1)^s weights within a generous chi-square bound, and
// must be head-heavy.
func TestZipfFrequencies(t *testing.T) {
	const nkeys, n = 32, 200_000
	const s = 1.1
	freq := keyFreqs(t, Spec{Seed: 101, Keys: KeySpec{Dist: KeyZipf, ZipfS: s}}, nkeys, n)
	prob := make([]float64, nkeys)
	sum := 0.0
	for i := range prob {
		prob[i] = 1 / math.Pow(float64(i+1), s)
		sum += prob[i]
	}
	for i := range prob {
		prob[i] /= sum
	}
	// 31 degrees of freedom: the 99.9th percentile is ~61; anything near
	// that at this sample size means the sampler is broken, not unlucky
	// (the seed is fixed, so this is fully deterministic anyway).
	if x := chiSquare(freq, prob, n); x > 61 {
		t.Errorf("zipf chi-square = %.1f (df=31), frequencies off: %v", x, freq)
	}
	if freq[0] <= freq[nkeys/2] || freq[0] <= freq[nkeys-1] {
		t.Errorf("zipf head not heavy: freq[0]=%d freq[mid]=%d freq[last]=%d",
			freq[0], freq[nkeys/2], freq[nkeys-1])
	}
}

// TestHotsetFrequencies: the hot keys must absorb HotFrac of the traffic
// (within sampling tolerance at the fixed seed) and split it evenly.
func TestHotsetFrequencies(t *testing.T) {
	const nkeys, n = 16, 200_000
	freq := keyFreqs(t, Spec{Seed: 7, Keys: KeySpec{Dist: KeyHotset, HotKeys: 2, HotFrac: 0.8}}, nkeys, n)
	hot := freq[0] + freq[1]
	got := float64(hot) / float64(n)
	if got < 0.78 || got > 0.82 {
		t.Errorf("hot fraction = %.3f, want ≈0.8", got)
	}
	// Within each tier the split is uniform: build the tiered probability
	// vector and chi-square it.
	prob := make([]float64, nkeys)
	for i := range prob {
		if i < 2 {
			prob[i] = 0.8 / 2
		} else {
			prob[i] = 0.2 / float64(nkeys-2)
		}
	}
	if x := chiSquare(freq, prob, n); x > 40 { // df=15, 99.9th pct ≈ 37.7
		t.Errorf("hotset chi-square = %.1f (df=15): %v", x, freq)
	}
}

// TestUniformFrequencies: the uniform distribution stays flat.
func TestUniformFrequencies(t *testing.T) {
	const nkeys, n = 16, 160_000
	freq := keyFreqs(t, Spec{Seed: 13}, nkeys, n)
	prob := make([]float64, nkeys)
	for i := range prob {
		prob[i] = 1 / float64(nkeys)
	}
	if x := chiSquare(freq, prob, n); x > 40 {
		t.Errorf("uniform chi-square = %.1f (df=15): %v", x, freq)
	}
}

// TestShiftingHotsetMoves: the hot window must actually move across the
// key space as picks accumulate.
func TestShiftingHotsetMoves(t *testing.T) {
	spec := mustNormalize(t, Spec{Seed: 5, Keys: KeySpec{
		Dist: KeyShiftingHotset, HotKeys: 1, HotFrac: 0.9, ShiftEvery: 1000,
	}})
	src := NewSource(spec, 0)
	const nkeys = 8
	hotOf := func() int { // dominant key over one window
		freq := make([]int, nkeys)
		for i := 0; i < 1000; i++ {
			freq[src.PickKey(nkeys)]++
		}
		best := 0
		for i, f := range freq {
			if f > freq[best] {
				best = i
			}
		}
		if freq[best] < 800 {
			t.Fatalf("no dominant hot key in window: %v", freq)
		}
		return best
	}
	first, second := hotOf(), hotOf()
	if first == second {
		t.Errorf("hot key did not shift: stayed at %d", first)
	}
	if second != (first+1)%nkeys {
		t.Errorf("hot key moved %d → %d, want the adjacent window", first, second)
	}
}

func TestOpMixProportions(t *testing.T) {
	spec := mustNormalize(t, Spec{Seed: 17, Ops: OpMix{Lock: 0.5, Try: 0.3, Timed: 0.2, TimeoutMS: 1}})
	src := NewSource(spec, 0)
	const n = 100_000
	counts := map[OpKind]int{}
	for i := 0; i < n; i++ {
		counts[src.NextOp()]++
	}
	check := func(k OpKind, want float64) {
		got := float64(counts[k]) / n
		if math.Abs(got-want) > 0.02 {
			t.Errorf("%v fraction = %.3f, want ≈%.1f", k, got, want)
		}
	}
	check(OpLock, 0.5)
	check(OpTry, 0.3)
	check(OpTimed, 0.2)
}

func TestArrivalDelays(t *testing.T) {
	// Poisson: the mean inter-arrival gap must approximate 1/rate.
	poisson := mustNormalize(t, Spec{Seed: 23, Arrival: ArrivalSpec{Process: ArrivalPoisson, RatePerSec: 1000}})
	src := NewSource(poisson, 0)
	var total time.Duration
	const n = 50_000
	for i := 0; i < n; i++ {
		total += src.NextArrivalDelay()
	}
	mean := float64(total) / n / float64(time.Millisecond)
	if mean < 0.95 || mean > 1.05 {
		t.Errorf("poisson mean gap = %.3fms, want ≈1ms", mean)
	}

	// Bursty: BurstSize arrivals share an instant, then one gap restores
	// the long-run rate.
	bursty := mustNormalize(t, Spec{Seed: 23, Arrival: ArrivalSpec{
		Process: ArrivalBursty, RatePerSec: 1000, BurstSize: 4,
	}})
	src = NewSource(bursty, 0)
	for round := 0; round < 5; round++ {
		if gap := src.NextArrivalDelay(); gap != 4*time.Millisecond {
			t.Fatalf("round %d: burst gap = %v, want 4ms", round, gap)
		}
		for i := 0; i < 3; i++ {
			if gap := src.NextArrivalDelay(); gap != 0 {
				t.Fatalf("round %d: intra-burst gap = %v, want 0", round, gap)
			}
		}
	}

	// Closed loop has no arrival schedule.
	closed := mustNormalize(t, Spec{})
	if d := NewSource(closed, 0).NextArrivalDelay(); d != 0 {
		t.Errorf("closed-loop delay = %v", d)
	}
}
