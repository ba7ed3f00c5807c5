package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestRunVariants(t *testing.T) {
	cases := [][]string{
		{"-alg", "rw", "-n", "2", "-m", "3"},
		{"-alg", "rmw", "-n", "2", "-m", "3", "-sched", "random", "-seed", "9", "-sessions", "2"},
		{"-alg", "rmw", "-n", "3", "-m", "1", "-cs-ticks", "2"},
		{"-alg", "rw", "-n", "2", "-m", "3", "-trace", "50"},
		{"-alg", "rw", "-n", "2", "-m", "3", "-honest-snapshots"},
		{"-alg", "rw", "-n", "2", "-m", "4", "-force", "-sched", "lockstep",
			"-perms", "rotation", "-rotation-step", "2", "-detect-cycles"},
		{"-alg", "rw", "-n", "2", "-m", "3", "-perms", "random", "-perm-seed", "3"},
		{"-alg", "rw", "-n", "3", "-m", "0"}, // m derived from n
		{"-alg", "rmw", "-n", "3", "-m", "1", "-sessions", "2", "-cs-ticks", "2",
			"-workload", "bursty", "-workload-seed", "5"},
		{"-alg", "rmw", "-n", "3", "-m", "1", "-workload", "skewed", "-substrate", "real"},
	}
	for _, args := range cases {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

// TestRunCheckLegal: under -check, every interleaving of a legal size
// verifies.
func TestRunCheckLegal(t *testing.T) {
	for _, args := range [][]string{
		{"-check", "-alg", "rw", "-n", "2", "-m", "3"},
		{"-check", "-alg", "rmw", "-n", "2", "-m", "3"},
		{"-check", "-alg", "rmw", "-n", "2", "-m", "1"},
		{"-check", "-alg", "rmw", "-n", "2", "-m", "3", "-sessions", "2"},
		{"-check", "-scenario", "smoke-rw"},
	} {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestRunCheckErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-check", "-alg", "bogus"},
		{"-check", "-alg", "rw", "-n", "2", "-m", "4"}, // illegal without -force
		{"-check", "-scenario", "smoke-rw", "-substrate", "real"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestRunScenarios(t *testing.T) {
	cases := [][]string{
		{"-list-scenarios"},
		{"-scenario", "smoke-rw"},
		{"-scenario", "lockstep-livelock"},
		{"-scenario", "smoke-rmw", "-substrate", "real"},
		{"-scenario", "contended-rw", "-dump-scenario"},
		{"-alg", "rmw", "-n", "2", "-m", "3", "-substrate", "real"},
		{"-alg", "rw", "-n", "2", "-m", "3", "-dump-scenario"},
	}
	for _, args := range cases {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestRunScenarioFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spec.json")
	spec := `{"algorithm": "rmw", "n": 2, "m": 3, "sessions": 2}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scenario-file", path}); err != nil {
		t.Errorf("run(-scenario-file): %v", err)
	}
	if err := run([]string{"-scenario-file", path, "-substrate", "real"}); err != nil {
		t.Errorf("run(-scenario-file -substrate real): %v", err)
	}
}

func TestRunWorkloadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "traffic.json")
	traffic := `{"profile": "bursty", "base_cs": 3, "base_remainder": 4, "seed": 11}`
	if err := os.WriteFile(path, []byte(traffic), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-scenario", "smoke-rmw", "-workload-file", path, "-substrate", "real"},
		{"-alg", "rmw", "-n", "2", "-m", "3", "-cs-ticks", "2", "-workload-file", path},
		{"-scenario", "smoke-rw", "-workload-file", path, "-dump-scenario"},
	} {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-alg", "bogus"},
		{"-sched", "bogus"},
		{"-perms", "bogus"},
		{"-alg", "rw", "-n", "2", "-m", "4"}, // illegal size without -force
		{"-nosuchflag"},
		{"-scenario", "no-such-scenario"},
		{"-scenario-file", "/no/such/file.json"},
		{"-scenario", "smoke-rw", "-scenario-file", "x.json"}, // mutually exclusive
		{"-scenario", "smoke-rw", "-substrate", "bogus"},
		{"-scenario", "lockstep-livelock", "-substrate", "real"}, // unchecked size
		{"-alg", "greedy", "-n", "2", "-m", "3", "-substrate", "real"},
		{"-alg", "rw", "-n", "2", "-m", "3", "-workload", "pareto"}, // unknown profile fails loudly
		{"-workload-file", "/no/such/traffic.json"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestRunVerdicts: a run that finds the algorithm breaking a property
// returns errVerdict (main exits 2 on it), not a plain error and not an
// exit from inside run.
func TestRunVerdicts(t *testing.T) {
	for _, args := range [][]string{
		// The greedy strawman on the Theorem 5 ring: all three enter.
		{"-alg", "greedy", "-n", "3", "-m", "6", "-sched", "lockstep", "-perms", "rotation", "-rotation-step", "2"},
		{"-check", "-alg", "greedy", "-n", "2", "-m", "2"},
		// An illegal size: the model checker finds the trap.
		{"-check", "-alg", "rmw", "-n", "2", "-m", "2", "-force"},
	} {
		if err := run(args); !errors.Is(err, errVerdict) {
			t.Errorf("run(%v) = %v, want a verdict", args, err)
		}
	}
	if err := run([]string{"-alg", "bogus"}); errors.Is(err, errVerdict) {
		t.Errorf("a usage error reads as a verdict: %v", err)
	}
}
