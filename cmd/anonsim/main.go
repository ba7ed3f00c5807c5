// Command anonsim runs one execution of an anonymous-memory mutual
// exclusion algorithm — described by flags, a named scenario, or a
// scenario JSON file — on either substrate, or model-checks it with
// -check, and reports its outcome.
//
// Usage:
//
//	anonsim -alg rw -n 3 -m 5 -sched random -seed 7 -sessions 2
//	anonsim -alg rmw -n 2 -m 4 -force -sched lockstep -perms rotation -rotation-step 2 -detect-cycles
//	anonsim -alg rw -n 2 -m 3 -trace 200
//	anonsim -alg rmw -n 4 -m 5 -sessions 3 -cs-ticks 2 -workload bursty
//	anonsim -scenario contended-rw -workload-file traffic.json -substrate real
//	anonsim -list-scenarios
//	anonsim -scenario contended-rw
//	anonsim -scenario contended-rw -substrate real
//	anonsim -scenario lockstep-livelock -dump-scenario > wedge.json
//	anonsim -scenario-file wedge.json
//	anonsim -check -alg rw -n 2 -m 3          # every interleaving: verify Algorithm 1
//	anonsim -check -alg rmw -n 2 -m 2 -force  # find the Theorem 5 trap
//	anonsim -check -alg greedy -n 2 -m 2      # watch a broken protocol fail
//
// A verdict against the algorithm — a mutual-exclusion violation, a
// progress trap, or a check that did not finish — is printed and exits 2;
// any other error exits 1.
//
// The scenario's traffic comes from the unified workload model:
// -workload names a session profile (uniform, bursty, skewed) and
// -workload-file attaches a full traffic spec (internal/workload.Spec
// JSON) to whatever scenario is being run — both substrates consume it
// (per-session spin work on the real locks, per-session CS ticks on the
// simulated scheduler when -cs-ticks is set).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"anonmutex"
	"anonmutex/internal/scenario"
	"anonmutex/internal/workload"
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
	alg := anonmutex.RW
	fs.TextVar(&alg, "alg", alg, "algorithm: rw, rmw, or greedy")
	n := fs.Int("n", 2, "number of processes")
	m := fs.Int("m", 3, "number of anonymous registers (0: smallest legal size)")
	force := fs.Bool("force", false, "allow m outside M(n)")
	sessions := fs.Int("sessions", 1, "lock/unlock cycles per process")
	csTicks := fs.Int("cs-ticks", 0, "scheduler ticks spent inside the CS")
	schedName := fs.String("sched", "rr", "schedule: rr, random, or lockstep")
	seed := fs.Uint64("seed", 1, "schedule seed (random schedule)")
	permsName := fs.String("perms", "identity", "permutations: identity, random, or rotation")
	permSeed := fs.Uint64("perm-seed", 1, "permutation seed (random permutations)")
	rotationStep := fs.Int("rotation-step", 1, "rotation step (rotation permutations)")
	honest := fs.Bool("honest-snapshots", false, "schedule each double-scan read separately")
	workloadName := fs.String("workload", "", "session profile for the scenario's traffic model: uniform, bursty, or skewed")
	workloadSeed := fs.Uint64("workload-seed", 0, "traffic-model seed")
	workloadFile := fs.String("workload-file", "", "full traffic-model JSON file (internal/workload.Spec schema) attached to the scenario")
	detect := fs.Bool("detect-cycles", false, "stop with a livelock verdict on a repeated state")
	maxSteps := fs.Int("max-steps", 1_000_000, "step bound (with -check: state bound)")
	traceCap := fs.Int("trace", 0, "print up to this many trace events")
	scenarioName := fs.String("scenario", "", "run a registered scenario instead of building one from flags")
	scenarioFile := fs.String("scenario-file", "", "run a scenario spec from a JSON file")
	substrate := fs.String("substrate", "sim", "execution substrate: sim (deterministic scheduler) or real (goroutines over hardware-atomic memory)")
	listScenarios := fs.Bool("list-scenarios", false, "list registered scenarios and exit")
	dump := fs.Bool("dump-scenario", false, "print the scenario's JSON spec instead of running it")
	check := fs.Bool("check", false, "explore every interleaving of the scenario (model check) instead of running one schedule")
	if err := fs.Parse(args); err != nil {
		return err
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
	switch {
	case *scenarioName != "" && *scenarioFile != "":
		return fmt.Errorf("-scenario and -scenario-file are mutually exclusive")
	case *scenarioName != "":
		s, err := scenario.Lookup(*scenarioName)
		if err != nil {
			return err
		}
		spec = s
	case *scenarioFile != "":
		data, err := os.ReadFile(*scenarioFile)
		if err != nil {
			return err
		}
		s, err := scenario.ParseJSON(data)
		if err != nil {
			return err
		}
		spec = s
	default:
		spec = scenario.Spec{
			Algorithm:       alg,
			N:               *n,
			M:               *m,
			Unchecked:       *force || alg == anonmutex.Greedy,
			Sessions:        *sessions,
			CSTicks:         *csTicks,
			Schedule:        *schedName,
			Seed:            *seed,
			Perms:           *permsName,
			PermSeed:        *permSeed,
			RotationStep:    *rotationStep,
			HonestSnapshots: *honest,
			DetectCycles:    *detect,
			MaxSteps:        *maxSteps,
			TraceCap:        *traceCap,
		}
		s, err := spec.Normalize()
		if err != nil {
			return err
		}
		spec = s
	}

	// Attach the traffic-model overrides to whatever scenario was
	// selected, then re-normalize (idempotent for untouched specs).
	if *workloadFile != "" {
		data, err := os.ReadFile(*workloadFile)
		if err != nil {
			return err
		}
		tspec, err := workload.ParseJSON(data)
		if err != nil {
			return err
		}
		spec.Traffic = tspec
		spec.Workload = "" // the file owns the profile now
		spec.WorkloadSeed = 0
	}
	if *workloadName != "" {
		spec.Workload = *workloadName
		spec.Traffic.Profile = "" // the shorthand wins the profile
	}
	if *workloadSeed != 0 {
		spec.WorkloadSeed = *workloadSeed
		spec.Traffic.Seed = 0
	}
	{
		s, err := spec.Normalize()
		if err != nil {
			return err
		}
		spec = s
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
