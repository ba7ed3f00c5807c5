// Command anonsim is the repository's research command. It runs one
// execution of an anonymous-memory mutual exclusion algorithm on either
// substrate, or model-checks it with -check, and reports its outcome; or
// it runs the reproduction suite with -experiment.
//
// Usage:
//
//	anonsim -list-scenarios
//	anonsim -scenario contended-rw
//	anonsim -scenario contended-rw -substrate real
//	anonsim -scenario '{"algorithm":"rw","n":3,"m":5,"sessions":2,"schedule":"random","seed":7}'
//	anonsim -scenario '{"algorithm":"rw","n":2,"m":3,"trace_cap":200}'
//	anonsim -scenario '{"algorithm":"rmw","n":4,"m":5,"sessions":3,"cs_ticks":2,"workload":"bursty"}'
//	anonsim -scenario lockstep-livelock -dump-scenario > wedge.json
//	anonsim -scenario-file wedge.json
//	anonsim -check -scenario '{"algorithm":"rw","n":2,"m":3}'                    # every interleaving: verify Algorithm 1
//	anonsim -check -scenario '{"algorithm":"rmw","n":2,"m":2,"unchecked":true}'  # find the Theorem 5 trap
//	anonsim -check -scenario '{"algorithm":"greedy","n":2,"m":2}'                # watch a broken protocol fail
//	anonsim -experiment T2                    # one reproduction experiment
//	anonsim -experiment all -json             # the whole suite as JSON
//
// A run is one scenario spec (internal/scenario.Spec): the algorithm, n,
// m, the anonymity adversary's permutations, the schedule, sessions, the
// workload profile and the seeds. -scenario takes a registered scenario's
// name or the spec itself as inline JSON (a value that starts with "{");
// -scenario-file reads the JSON from a file. The JSON is the text
// -dump-scenario prints, and unknown fields are refused. An m of 0 picks
// the smallest legal size; an illegal m is refused with its witness
// unless the spec sets "unchecked". The spec's workload (uniform, bursty
// or skewed) and workload_seed drive both substrates: per-session spin
// work on the real locks, per-session CS ticks on the simulated
// scheduler when cs_ticks is set.
//
// -experiment runs the reproduction suite (internal/experiments): one
// experiment per paper artifact (Table I, Figures 1-2, Table II,
// Theorem 5) plus the added simulations and the scenario-registry sweep,
// printed as paper-style tables or, with -json, as an array of
// {id, title, seconds, table} records. It is the reproduction, not a
// performance record: what the lock service costs is measured by bench/
// (BENCHMARK.json).
//
// A verdict against the algorithm — a mutual-exclusion violation, a
// progress trap, or a check that did not finish — is printed and exits 2;
// any other error exits 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"anonmutex/internal/experiments"
	"anonmutex/internal/scenario"
	"anonmutex/internal/stats"
)

// errVerdict marks a run that finished and found the algorithm breaking
// a property it must hold; the report is already printed.
var errVerdict = errors.New("verdict")

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "anonsim:", err)
		if errors.Is(err, errVerdict) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("anonsim", flag.ContinueOnError)
	scenarioArg := fs.String("scenario", "", "the run: a registered scenario's name, or a scenario spec as inline JSON (the text -dump-scenario prints)")
	scenarioFile := fs.String("scenario-file", "", "run a scenario spec from a JSON file")
	substrate := fs.String("substrate", "sim", "execution substrate: sim (deterministic scheduler) or real (goroutines over hardware-atomic memory)")
	listScenarios := fs.Bool("list-scenarios", false, "list registered scenarios and exit")
	dump := fs.Bool("dump-scenario", false, "print the scenario's JSON spec instead of running it")
	check := fs.Bool("check", false, "explore every interleaving of the scenario (model check) instead of running one schedule")
	expID := fs.String("experiment", "", "run a reproduction experiment instead of a scenario: "+strings.Join(experiments.IDs(), ", ")+", or all")
	jsonOut := fs.Bool("json", false, "with -experiment: print the results as JSON instead of text tables")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *expID != "" {
		return runExperiments(*expID, *jsonOut)
	}
	if *jsonOut {
		return fmt.Errorf("-json needs -experiment")
	}

	if *listScenarios {
		for _, name := range scenario.Names() {
			spec, err := scenario.Lookup(name)
			if err != nil {
				return err
			}
			fmt.Printf("%-20s %s\n", name, spec.Doc)
		}
		return nil
	}

	var spec scenario.Spec
	var err error
	switch {
	case *scenarioArg != "" && *scenarioFile != "":
		return fmt.Errorf("-scenario and -scenario-file are mutually exclusive")
	case strings.HasPrefix(*scenarioArg, "{"):
		spec, err = scenario.ParseJSON([]byte(*scenarioArg))
	case *scenarioArg != "":
		spec, err = scenario.Lookup(*scenarioArg)
	case *scenarioFile != "":
		var data []byte
		if data, err = os.ReadFile(*scenarioFile); err == nil {
			spec, err = scenario.ParseJSON(data)
		}
	default:
		return fmt.Errorf("nothing to run: give -scenario (a name or inline JSON), -scenario-file, -list-scenarios or -experiment")
	}
	if err != nil {
		return err
	}

	if *dump {
		data, err := spec.JSON()
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}

	switch {
	case *check && *substrate != "sim":
		return fmt.Errorf("-check explores the simulated substrate, not %q", *substrate)
	case *check:
		return runCheck(spec)
	case *substrate == "sim":
		return runSim(spec)
	case *substrate == "real":
		return runReal(spec)
	default:
		return fmt.Errorf("unknown substrate %q (want sim or real)", *substrate)
	}
}

func runSim(spec scenario.Spec) error {
	res, err := scenario.RunSim(spec)
	if err != nil {
		return err
	}
	fmt.Printf("algorithm %s, n=%d, m=%d, schedule %s, permutations %s, substrate sim\n",
		spec.Algorithm, spec.N, spec.M, spec.Schedule, spec.Perms)
	fmt.Printf("steps: %d   entries: %d   completed: %v\n", res.Steps, res.Entries, res.Completed)
	if res.CycleDetected {
		fmt.Printf("LIVELOCK: global state repeated (cycle entered at step %d) — no invocation will ever complete\n", res.CycleStart)
	}
	if len(res.Violations) > 0 {
		fmt.Printf("MUTUAL EXCLUSION VIOLATED %d time(s)\n", len(res.Violations))
	}
	fmt.Println()
	fmt.Printf("%-5s %-9s %-8s %-9s %-9s %-10s %-10s\n", "proc", "sessions", "entries", "bypasses", "max-wait", "mean-wait", "owned@entry")
	for i, ps := range res.PerProc {
		fmt.Printf("p%-4d %-9d %-8d %-9d %-9d %-10.1f %-10d\n",
			i, ps.Sessions, ps.Entries, ps.Bypasses, ps.MaxWaitSteps, ps.MeanWait, ps.OwnedAtEntry)
	}
	if res.Trace != nil && len(res.Trace.Events) > 0 {
		fmt.Println("\ntrace:")
		for _, e := range res.Trace.Events {
			fmt.Println(" ", e)
		}
	}
	if len(res.Violations) > 0 {
		return fmt.Errorf("%w: mutual exclusion violated %d time(s)", errVerdict, len(res.Violations))
	}
	return nil
}

func runReal(spec scenario.Spec) error {
	res, err := scenario.RunReal(spec)
	if err != nil {
		return err
	}
	fmt.Printf("algorithm %s, n=%d, m=%d, workload %s, substrate real\n",
		spec.Algorithm, spec.N, spec.M, spec.Workload)
	fmt.Printf("entries: %d   ME violations: %d\n", res.Entries, res.MEViolations)
	fmt.Println()
	fmt.Printf("%-5s %-9s %-12s %-10s\n", "proc", "sessions", "owned@entry", "lock-steps")
	for i, ps := range res.PerProc {
		fmt.Printf("p%-4d %-9d %-12d %-10d\n", i, ps.Sessions, ps.OwnedAtEntry, ps.LockSteps)
	}
	if res.MEViolations > 0 {
		return fmt.Errorf("%w: mutual exclusion violated %d time(s)", errVerdict, res.MEViolations)
	}
	return nil
}

func runCheck(spec scenario.Spec) error {
	res, err := scenario.Check(spec)
	if err != nil {
		return err
	}
	fmt.Printf("configuration: %s, n=%d, m=%d, sessions=%d, permutations %s\n",
		spec.Algorithm, spec.N, spec.M, spec.Sessions, spec.Perms)
	fmt.Printf("states: %d   transitions: %d   complete: %v\n", res.States, res.Transitions, res.Complete)
	fmt.Printf("critical-section entry edges: %d\n", res.Entries)
	fmt.Println()
	if res.MEViolations > 0 {
		fmt.Printf("MUTUAL EXCLUSION VIOLATED in %d states\n  witness: %s\n", res.MEViolations, res.MEWitness)
	} else {
		fmt.Println("mutual exclusion: holds in every reachable state")
	}
	if res.Traps > 0 {
		fmt.Printf("DEADLOCK-FREEDOM VIOLATED: %d trap states (pending work, no completion reachable)\n  witness: %s\n", res.Traps, res.TrapWitness)
	} else {
		fmt.Println("deadlock-freedom: every reachable state can still complete a lock/unlock")
	}
	if !res.OK() {
		return fmt.Errorf("%w: %d mutual-exclusion states, %d trap states, complete %v",
			errVerdict, res.MEViolations, res.Traps, res.Complete)
	}
	return nil
}

// runExperiments runs one experiment, or all of them in presentation
// order. Text streams each table as its experiment finishes; JSON
// collects them, since it must be one document.
func runExperiments(expID string, jsonOut bool) error {
	toRun := experiments.All()
	if expID != "all" {
		e, err := experiments.ByID(expID)
		if err != nil {
			return err
		}
		toRun = []experiments.Experiment{e}
	}
	var results []stats.Record
	for i, e := range toRun {
		start := time.Now()
		tbl, err := e.Run()
		if err != nil {
			return fmt.Errorf("experiment %s: %w", e.ID, err)
		}
		elapsed := time.Since(start).Seconds()
		if jsonOut {
			results = append(results, stats.Record{ID: e.ID, Title: e.Title, Seconds: elapsed, Table: tbl})
			continue
		}
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("[%s] %s  (%.2fs)\n", e.ID, e.Title, elapsed)
		fmt.Print(tbl.String())
	}
	if !jsonOut {
		return nil
	}
	return stats.WriteRecords(os.Stdout, results)
}
