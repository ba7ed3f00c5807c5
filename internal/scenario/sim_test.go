package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"anonmutex"
)

// TestRunSimEveryBuiltIn: every registered scenario runs on the simulated
// substrate without a mutual-exclusion violation, and completes — except
// lockstep-livelock, the Theorem 5 wedge, which must stop on a repeated
// state without a single entry.
func TestRunSimEveryBuiltIn(t *testing.T) {
	for _, name := range Names() {
		spec, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunSim(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Violations) != 0 {
			t.Errorf("%s: %d mutual-exclusion violations", name, len(res.Violations))
		}
		if name == "lockstep-livelock" {
			if !res.CycleDetected || res.Entries != 0 {
				t.Errorf("%s: cycle %v after %d entries, want a cycle with 0", name, res.CycleDetected, res.Entries)
			}
			continue
		}
		if !res.Completed || res.Entries != spec.N*spec.Sessions {
			t.Errorf("%s: completed %v with %d entries after %d steps, want %d entries",
				name, res.Completed, res.Entries, res.Steps, spec.N*spec.Sessions)
		}
	}
}

// TestRunSimRW: Algorithm 1 on n=2, m=3 completes both sessions of both
// processes, and each process enters owning all three registers.
func TestRunSimRW(t *testing.T) {
	res, err := RunSim(Spec{Algorithm: anonmutex.RW, N: 2, M: 3, Sessions: 2, Schedule: SchedRandom, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || len(res.Violations) != 0 || res.Entries != 4 {
		t.Fatalf("completed %v, %d violations, %d entries", res.Completed, len(res.Violations), res.Entries)
	}
	if len(res.PerProc) != 2 {
		t.Fatalf("PerProc len %d", len(res.PerProc))
	}
	for i, ps := range res.PerProc {
		if ps.OwnedAtEntry != 3 {
			t.Errorf("proc %d owned %d at entry, want 3", i, ps.OwnedAtEntry)
		}
	}
}

func TestRunSimDeterministic(t *testing.T) {
	spec, err := Lookup("contended-rw")
	if err != nil {
		t.Fatal(err)
	}
	a, err := RunSim(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSim(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Steps != b.Steps || a.Entries != b.Entries || a.MemWrites != b.MemWrites {
		t.Errorf("same scenario diverged: (%d,%d,%d) vs (%d,%d,%d)",
			a.Steps, a.Entries, a.MemWrites, b.Steps, b.Entries, b.MemWrites)
	}
}

// TestRunSimConsumesTrafficModel: with cs_ticks set and a non-uniform
// profile, the simulated scheduler draws per-session CS ticks from the
// scenario's traffic plan — deterministically, and differently from the
// constant-ticks configuration.
func TestRunSimConsumesTrafficModel(t *testing.T) {
	base := Spec{
		Algorithm: anonmutex.RMW, N: 3, M: 1, Sessions: 4,
		Schedule: SchedRandom, Seed: 7,
		CSTicks: 5, MaxSteps: 20_000_000,
	}
	bursty := base
	bursty.Workload, bursty.WorkloadSeed = WorkloadBursty, 3

	a, err := RunSim(bursty)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSim(bursty)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Completed || len(a.Violations) != 0 {
		t.Fatalf("bursty-traffic run misbehaved: completed %v, %d violations", a.Completed, len(a.Violations))
	}
	if a.Steps != b.Steps || a.Entries != b.Entries {
		t.Errorf("traffic-driven run not deterministic: (%d,%d) vs (%d,%d)",
			a.Steps, a.Entries, b.Steps, b.Entries)
	}
	uniform, err := RunSim(base)
	if err != nil {
		t.Fatal(err)
	}
	if uniform.Steps == a.Steps {
		t.Errorf("bursty traffic did not change the schedule: both ran %d steps", a.Steps)
	}
}

// TestCheckLegalAndIllegal: the model checker passes a legal size, finds
// the Theorem 5 trap on an illegal one, and catches the greedy strawman
// violating mutual exclusion.
func TestCheckLegalAndIllegal(t *testing.T) {
	legal, err := Check(Spec{Algorithm: anonmutex.RMW, N: 2, M: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !legal.OK() {
		t.Errorf("legal size failed: complete %v, me %d, traps %d", legal.Complete, legal.MEViolations, legal.Traps)
	}
	illegal, err := Check(Spec{Algorithm: anonmutex.RMW, N: 2, M: 2, Unchecked: true})
	if err != nil {
		t.Fatal(err)
	}
	if illegal.Traps == 0 || illegal.MEViolations != 0 {
		t.Errorf("m=2, n=2: %d traps, %d ME states; want a trap and no ME state", illegal.Traps, illegal.MEViolations)
	}
	broken, err := Check(Spec{Algorithm: anonmutex.Greedy, N: 2, M: 2})
	if err != nil {
		t.Fatal(err)
	}
	if broken.MEViolations == 0 {
		t.Error("greedy strawman passed mutual exclusion")
	}
	if _, err := Check(Spec{Algorithm: anonmutex.RW, N: 2, M: 4}); err == nil {
		t.Error("illegal size checked without unchecked")
	}
}

// TestSpecJSONGolden pins the canonical encoding of two built-ins to the
// bytes scenario files already hold: the algorithm is an enum in Go and
// its name on the wire.
func TestSpecJSONGolden(t *testing.T) {
	for _, name := range []string{"lockstep-livelock", "bursty-rmw"} {
		want, err := os.ReadFile(filepath.Join("testdata", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		spec, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := spec.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(append(got, '\n'), want) {
			t.Errorf("%s encodes as\n%s\nwant\n%s", name, got, want)
		}
	}
}
