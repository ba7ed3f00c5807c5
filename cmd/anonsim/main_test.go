package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
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

// TestRunExperimentErrors: the experiment flags refuse what names no
// experiment, and a bad flag next to -experiment is still a bad flag.
func TestRunExperimentErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-experiment", "nope"},
		{"-experiment", "E7"}, // deleted: its claim is C1's
		{"-experiment", "T1", "-qqq"},
		{"-json"}, // -json formats experiments only
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

func TestRunSingleExperiment(t *testing.T) {
	// T1 is instantaneous; the full suite is exercised by the
	// internal/experiments tests.
	out := captureStdout(t, func() error { return run([]string{"-experiment", "T1"}) })
	if !strings.HasPrefix(string(out), "[T1] Table I") || !strings.Contains(string(out), "R[1]") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

// captureStdout runs f with os.Stdout redirected and returns what it
// wrote.
func captureStdout(t *testing.T, f func() error) []byte {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	done := make(chan []byte)
	go func() {
		buf := make([]byte, 0, 1<<16)
		tmp := make([]byte, 4096)
		for {
			n, err := r.Read(tmp)
			buf = append(buf, tmp[:n]...)
			if err != nil {
				break
			}
		}
		done <- buf
	}()
	ferr := f()
	w.Close()
	out := <-done
	if ferr != nil {
		t.Fatal(ferr)
	}
	return out
}

func TestRunJSONOutput(t *testing.T) {
	out := captureStdout(t, func() error {
		return run([]string{"-experiment", "T1", "-json"})
	})
	var results []struct {
		ID      string  `json:"id"`
		Title   string  `json:"title"`
		Seconds float64 `json:"seconds"`
		Table   struct {
			Title  string     `json:"title"`
			Header []string   `json:"header"`
			Rows   [][]string `json:"rows"`
			Notes  []string   `json:"notes"`
		} `json:"table"`
	}
	dec := json.NewDecoder(strings.NewReader(string(out)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&results); err != nil {
		t.Fatalf("output is not the result schema: %v\n%s", err, out)
	}
	if len(results) != 1 || results[0].ID != "T1" || results[0].Title == "" || results[0].Seconds < 0 {
		t.Fatalf("unexpected results: %+v", results)
	}
	tbl := results[0].Table
	if tbl.Title == "" || len(tbl.Header) == 0 || len(tbl.Rows) == 0 || len(tbl.Notes) == 0 {
		t.Fatalf("incomplete table in JSON output: %+v", tbl)
	}
}

// TestRunExperimentIDs: the experiment ids are listed where a user
// meets them — in the error for an unknown one.
func TestRunExperimentIDs(t *testing.T) {
	err := run([]string{"-experiment", "nope"})
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, id := range []string{"T1", "L1", "E9", "S1"} {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("error %q does not list %s", err, id)
		}
	}
}
