package scenario

import (
	"strings"
	"testing"

	"anonmutex"
	"anonmutex/internal/workload"
)

func TestNormalizeDefaults(t *testing.T) {
	s, err := Spec{Algorithm: anonmutex.RW, N: 3}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if s.M != 5 {
		t.Errorf("derived m = %d, want 5 (smallest legal RW size for n=3)", s.M)
	}
	if s.Sessions != 1 || s.Schedule != SchedRoundRobin || s.Perms != PermsIdentity ||
		s.Workload != "uniform" || s.MaxSteps != 1_000_000 {
		t.Errorf("defaults not filled: %+v", s)
	}

	s2, err := Spec{Algorithm: anonmutex.RMW, N: 4}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if s2.M != 5 {
		t.Errorf("derived RMW m = %d, want 5", s2.M)
	}

	// A rotation with no step rotates by 1, not by 0 (the identity).
	s3, err := ParseJSON([]byte(`{"algorithm":"rw","n":3,"m":5,"perms":"rotation"}`))
	if err != nil {
		t.Fatal(err)
	}
	if s3.RotationStep != 1 {
		t.Errorf("rotation_step defaulted to %d, want 1", s3.RotationStep)
	}
}

func TestNormalizeRejects(t *testing.T) {
	cases := []Spec{
		{},                                      // no algorithm
		{Algorithm: anonmutex.Greedy + 1, N: 2}, // unknown algorithm
		{Algorithm: anonmutex.RW, N: 0},         // no processes
		{Algorithm: anonmutex.RW, N: 2, M: 4},   // illegal size (4 ∉ M(2))
		{Algorithm: anonmutex.Greedy, N: 2},     // greedy needs explicit m
		{Algorithm: anonmutex.RW, N: 2, M: 3, Schedule: "fifo"},
		{Algorithm: anonmutex.RW, N: 2, M: 3, Perms: "transposition"},
		{Algorithm: anonmutex.RW, N: 2, M: 3, Workload: "spiky"},
		{Algorithm: anonmutex.RW, N: 2, M: 3, Sessions: -1},
		{Algorithm: anonmutex.RW, N: 2, M: 3, CSTicks: -1},
		{Algorithm: anonmutex.RW, N: 2, M: 3, MaxSteps: -1},
	}
	for i, c := range cases {
		if _, err := c.Normalize(); err == nil {
			t.Errorf("case %d (%+v): invalid spec accepted", i, c)
		}
	}
	// The same illegal size passes with Unchecked.
	if _, err := (Spec{Algorithm: anonmutex.RW, N: 2, M: 4, Unchecked: true}).Normalize(); err != nil {
		t.Errorf("unchecked illegal size rejected: %v", err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	orig, err := Lookup("lockstep-livelock")
	if err != nil {
		t.Fatal(err)
	}
	data, err := orig.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if back != orig {
		t.Errorf("round trip changed the spec:\n  orig: %+v\n  back: %+v", orig, back)
	}
}

func TestParseJSONRejectsUnknownFields(t *testing.T) {
	_, err := ParseJSON([]byte(`{"algorithm":"rw","n":2,"m":3,"scheduler":"rr"}`))
	if err == nil || !strings.Contains(err.Error(), "scheduler") {
		t.Fatalf("unknown field accepted (err %v)", err)
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) < 8 {
		t.Fatalf("only %d built-in scenarios: %v", len(names), names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
	for _, name := range names {
		s, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name != name {
			t.Errorf("scenario %q carries name %q", name, s.Name)
		}
		if s.Doc == "" {
			t.Errorf("scenario %q has no doc line", name)
		}
		norm, err := s.Normalize()
		if err != nil {
			t.Errorf("registered scenario %q does not normalize: %v", name, err)
		}
		if norm != s {
			t.Errorf("registered scenario %q is not stored normalized", name)
		}
	}

	if _, err := Lookup("no-such-scenario"); err == nil {
		t.Error("unknown name looked up successfully")
	}
	if err := Register(Spec{Algorithm: anonmutex.RW, N: 2, M: 3}); err == nil {
		t.Error("nameless registration accepted")
	}
	if err := Register(Spec{Name: "smoke-rw", Algorithm: anonmutex.RW, N: 2, M: 3}); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := Register(Spec{Name: "broken", Algorithm: anonmutex.Greedy + 1, N: 2}); err == nil {
		t.Error("invalid registration accepted")
	}
}

func TestRunRealSmoke(t *testing.T) {
	for _, name := range []string{"smoke-rw", "smoke-rmw"} {
		spec, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunReal(spec)
		if err != nil {
			t.Fatal(err)
		}
		want := spec.N * spec.Sessions
		if res.Entries != want {
			t.Errorf("%s: %d entries, want %d", name, res.Entries, want)
		}
		if res.MEViolations != 0 {
			t.Errorf("%s: %d ME violations", name, res.MEViolations)
		}
		for i, ps := range res.PerProc {
			if ps.Sessions != spec.Sessions {
				t.Errorf("%s proc %d: %d sessions, want %d", name, i, ps.Sessions, spec.Sessions)
			}
		}
	}
}

func TestRunRealRejectsSimOnly(t *testing.T) {
	cases := []Spec{
		{Algorithm: anonmutex.Greedy, N: 2, M: 3},
		{Algorithm: anonmutex.RMW, N: 2, M: 2, Unchecked: true},
		{Algorithm: anonmutex.RW, N: 2, M: 3, DetectCycles: true},
	}
	for i, c := range cases {
		if _, err := RunReal(c); err == nil {
			t.Errorf("case %d: sim-only spec accepted on the real substrate", i)
		}
	}
}

func TestRunRealWorkloadProfiles(t *testing.T) {
	for _, w := range []string{"uniform", "bursty", "skewed"} {
		spec := Spec{
			Algorithm: anonmutex.RMW, N: 3, Sessions: 2,
			Workload: w, WorkloadSeed: 7,
		}
		res, err := RunReal(spec)
		if err != nil {
			t.Fatalf("workload %s: %v", w, err)
		}
		if res.Entries != 6 || res.MEViolations != 0 {
			t.Errorf("workload %s: entries=%d violations=%d", w, res.Entries, res.MEViolations)
		}
	}
}

// TestRunRealUsesUnifiedPlan: the real runner's per-process sessions
// must come from workload.SpecPlan on the scenario's profile and seed at
// the historical real-substrate scales (5 units a critical section, 10
// a remainder) — process i replays workload stream i.
func TestRunRealUsesUnifiedPlan(t *testing.T) {
	spec, err := (Spec{
		Algorithm: anonmutex.RMW, N: 2, M: 3, Sessions: 3,
		Workload: "bursty", WorkloadSeed: 21,
	}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	traffic := spec.traffic(5)
	if want := (workload.Spec{Profile: "bursty", BaseCS: 5, BaseRemainder: 10, Seed: 21}); traffic != want {
		t.Errorf("traffic model %+v, want %+v", traffic, want)
	}
	plan, err := workload.SpecPlan(traffic, spec.N, spec.Sessions)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 2 || len(plan[0]) != 3 {
		t.Fatalf("unexpected plan shape %dx%d", len(plan), len(plan[0]))
	}
	res, err := RunReal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Entries != 6 || res.MEViolations != 0 {
		t.Errorf("entries=%d violations=%d", res.Entries, res.MEViolations)
	}
}
