package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"anonmutex/internal/scenario"
)

func TestRunVariants(t *testing.T) {
	cases := [][]string{
		{"-scenario", `{"algorithm":"rw","n":2,"m":3}`},
		{"-scenario", `{"algorithm":"rmw","n":2,"m":3,"schedule":"random","seed":9,"sessions":2}`},
		{"-scenario", `{"algorithm":"rmw","n":3,"m":1,"cs_ticks":2}`},
		{"-scenario", `{"algorithm":"rw","n":2,"m":3,"trace_cap":50}`},
		{"-scenario", `{"algorithm":"rw","n":2,"m":3,"honest_snapshots":true}`},
		{"-scenario", `{"algorithm":"rw","n":2,"m":4,"unchecked":true,"schedule":"lockstep",
			"perms":"rotation","rotation_step":2,"detect_cycles":true}`},
		{"-scenario", `{"algorithm":"rw","n":2,"m":3,"perms":"random","perm_seed":3}`},
		{"-scenario", `{"algorithm":"rw","n":3,"m":0}`}, // m derived from n
		{"-scenario", `{"algorithm":"rmw","n":3,"m":1,"sessions":2,"cs_ticks":2,
			"workload":"bursty","workload_seed":5}`},
		{"-scenario", `{"algorithm":"rmw","n":3,"m":1,"workload":"skewed"}`, "-substrate", "real"},
	}
	for _, args := range cases {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

// TestRunWorkloadInline: bursty traffic is named in the scenario itself,
// and drives a run on either substrate and a -dump-scenario.
func TestRunWorkloadInline(t *testing.T) {
	for _, args := range [][]string{
		{"-scenario", `{"algorithm":"rmw","n":2,"m":3,"workload":"bursty","workload_seed":11}`, "-substrate", "real"},
		{"-scenario", `{"algorithm":"rmw","n":2,"m":3,"cs_ticks":2,"workload":"bursty","workload_seed":11}`},
		{"-scenario", `{"algorithm":"rw","n":2,"m":3,"workload":"bursty","workload_seed":11}`, "-dump-scenario"},
	} {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

// TestInlineSpecMatchesName: the inline form of a registered scenario is
// the text -dump-scenario prints, and running it prints what running the
// scenario by name prints.
func TestInlineSpecMatchesName(t *testing.T) {
	for _, name := range scenario.Names() {
		spec := captureStdout(t, func() error { return run([]string{"-scenario", name, "-dump-scenario"}) })
		byName := captureStdout(t, func() error { return run([]string{"-scenario", name}) })
		inline := captureStdout(t, func() error { return run([]string{"-scenario", string(spec)}) })
		if !bytes.Equal(byName, inline) {
			t.Errorf("%s: -scenario NAME prints\n%s\n-scenario <its JSON> prints\n%s", name, byName, inline)
		}
	}
}

// TestRunCheckLegal: under -check, every interleaving of a legal size
// verifies.
func TestRunCheckLegal(t *testing.T) {
	for _, args := range [][]string{
		{"-check", "-scenario", `{"algorithm":"rw","n":2,"m":3}`},
		{"-check", "-scenario", `{"algorithm":"rmw","n":2,"m":3}`},
		{"-check", "-scenario", `{"algorithm":"rmw","n":2,"m":1}`},
		{"-check", "-scenario", `{"algorithm":"rmw","n":2,"m":3,"sessions":2}`},
		{"-check", "-scenario", "smoke-rw"},
	} {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestRunCheckErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-check", "-scenario", `{"algorithm":"bogus","n":2}`},
		{"-check", "-scenario", `{"algorithm":"rw","n":2,"m":4}`}, // illegal without unchecked
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
		{"-scenario", `{"algorithm":"rmw","n":2,"m":3}`, "-substrate", "real"},
		{"-scenario", `{"algorithm":"rw","n":2,"m":3}`, "-dump-scenario"},
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

func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-scenario", `{"algorithm":"bogus","n":2}`},
		{"-scenario", `{"algorithm":"rw","n":2,"m":3,"schedule":"bogus"}`},
		{"-scenario", `{"algorithm":"rw","n":2,"m":3,"perms":"bogus"}`},
		{"-scenario", `{"algorithm":"rw","n":2,"m":4}`}, // illegal size without unchecked
		{"-nosuchflag"},
		{}, // nothing to run
		{"-scenario", "no-such-scenario"},
		{"-scenario-file", "/no/such/file.json"},
		{"-scenario", "smoke-rw", "-scenario-file", "x.json"}, // mutually exclusive
		{"-scenario", "smoke-rw", "-substrate", "bogus"},
		{"-scenario", "lockstep-livelock", "-substrate", "real"}, // unchecked size
		{"-scenario", `{"algorithm":"greedy","n":2,"m":3}`, "-substrate", "real"},
		{"-scenario", `{"algorithm":"rw","n":2,"m":3,"workload":"pareto"}`}, // unknown profile fails loudly
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestRunInlineSpecErrors: a bad inline spec is a usage error (exit 1,
// not a verdict) whose message names the problem.
func TestRunInlineSpecErrors(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want []string
	}{
		{`{"algorithm":"rw","n":2`, []string{"parsing spec", "unexpected EOF"}},
		{`{"algorithm":"rw","n":2,"m":3,"sched":"rr"}`, []string{`unknown field "sched"`}},
		{`{"algorithm":"rw","n":2,"m":3,"traffic":{"profile":"bursty"}}`, []string{`unknown field "traffic"`}},
		{`{"algorithm":"rw","n":6,"m":35}`, []string{"m=35 not in M(6)", "gcd(5, 35) = 5", "unchecked"}},
	} {
		err := run([]string{"-scenario", tc.spec})
		if err == nil || errors.Is(err, errVerdict) {
			t.Errorf("run(-scenario %s) = %v, want a usage error", tc.spec, err)
			continue
		}
		for _, frag := range tc.want {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("run(-scenario %s): error %q does not name %q", tc.spec, err, frag)
			}
		}
	}
}

// TestFlags pins the command's surface: a run is described by a scenario
// spec, so no flag rebuilds one field by field.
func TestFlags(t *testing.T) {
	usage, err := capture(t, &os.Stderr, func() error { return run([]string{"-h"}) })
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run(-h) = %v, want flag.ErrHelp", err)
	}
	var got []string
	for _, line := range strings.Split(string(usage), "\n") {
		if name, ok := strings.CutPrefix(line, "  -"); ok {
			got = append(got, strings.Fields(name)[0])
		}
	}
	want := []string{"check", "dump-scenario", "experiment", "json", "list-scenarios", "scenario", "scenario-file", "substrate"}
	if !slices.Equal(got, want) {
		t.Errorf("anonsim defines flags %v, want %v", got, want)
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
		{"-scenario", `{"algorithm":"greedy","n":3,"m":6,"schedule":"lockstep","perms":"rotation","rotation_step":2}`},
		{"-check", "-scenario", `{"algorithm":"greedy","n":2,"m":2}`},
		// An illegal size: the model checker finds the trap.
		{"-check", "-scenario", `{"algorithm":"rmw","n":2,"m":2,"unchecked":true}`},
	} {
		if err := run(args); !errors.Is(err, errVerdict) {
			t.Errorf("run(%v) = %v, want a verdict", args, err)
		}
	}
	if err := run([]string{"-scenario", `{"algorithm":"bogus","n":2}`}); errors.Is(err, errVerdict) {
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
// wrote; f must succeed.
func captureStdout(t *testing.T, f func() error) []byte {
	t.Helper()
	out, err := capture(t, &os.Stdout, f)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// capture runs f with *file redirected to a pipe and returns what f
// wrote there and f's error.
func capture(t *testing.T, file **os.File, f func() error) ([]byte, error) {
	t.Helper()
	old := *file
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	*file = w
	defer func() { *file = old }()
	done := make(chan []byte)
	go func() {
		out, _ := io.ReadAll(r)
		done <- out
	}()
	ferr := f()
	w.Close()
	return <-done, ferr
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
