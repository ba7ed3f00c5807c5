// Package experiments implements the reproduction harness: one function
// per paper artifact (table, figure, theorem) plus the added quantitative
// experiments, each returning a printable table.
//
// The experiment identifiers are documented in DESIGN.md at the
// repository root:
//
//	T1  Table I    — the anonymous-addressing example
//	F1  Figure 1   — Algorithm 1 behavior (RW model) + Theorems 1–2
//	F2  Figure 2   — Algorithm 2 behavior (RMW model) + Theorems 3–4
//	T2  Table II   — the sufficient/necessary global picture
//	L1  Theorem 5  — the lock-step ring construction grid
//	C1  §I-C       — entry-cost comparison (all m vs. majority)
//	E8             — design-choice ablations
//	E9             — fairness (deadlock-freedom is not starvation-freedom)
//	E10            — anonymity invariance
//	S1             — the scenario-registry sweep, on both substrates
//
// Everything except S1's real-substrate rows is deterministic: fixed
// seeds, simulated schedules. What measures the lock service lives elsewhere:
// performance in bench/ (BENCHMARK.json), crash and failover behaviour
// in internal/chaos; DESIGN.md's claim ledger says which test checks
// what.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"anonmutex"
	"anonmutex/internal/core"
	"anonmutex/internal/lowerbound"
	"anonmutex/internal/perm"
	"anonmutex/internal/scenario"
	"anonmutex/internal/sched"
	"anonmutex/internal/stats"
	"anonmutex/mnum"
)

// Experiment is a runnable reproduction artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func() (*stats.Table, error)
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"T1", "Table I: anonymous memory addressing example", TableI},
		{"F1", "Figure 1 / Algorithm 1: RW-model behavior (Theorems 1-2)", Figure1},
		{"F2", "Figure 2 / Algorithm 2: RMW-model behavior (Theorems 3-4)", Figure2},
		{"T2", "Table II: sufficient and necessary conditions", TableII},
		{"L1", "Theorem 5: lock-step ring construction grid", Theorem5},
		{"C1", "Entry cost: all-m (RW) vs majority (RMW)", EntryCost},
		{"E8", "Ablations: claim policy, tie-break rule, wait-for-empty", Ablations},
		{"E9", "Fairness: bypasses and waiting spread", Fairness},
		{"E10", "Anonymity invariance: permutation adversaries", PermInvariance},
		{"S1", "Scenario registry: every named scenario, both substrates", ScenarioSuite},
	}
}

// IDs returns every experiment identifier in presentation order.
func IDs() []string {
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	return ids
}

// ByID returns the experiment with the given identifier.
func ByID(idStr string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == idStr {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (have %s)", idStr, strings.Join(IDs(), " "))
}

// TableI reconstructs the paper's Table I: a 3-register memory, processes
// p and q with the printed permutations (2,3,1) and (3,1,2). The table is
// rebuilt from live perm.Perm objects, and the text's claim — p's R[2] and
// q's R[3] are the same physical register, R[1] — is verified.
func TableI() (*stats.Table, error) {
	pPrinted, err := perm.FromOneBased([]int{2, 3, 1})
	if err != nil {
		return nil, err
	}
	qPrinted, err := perm.FromOneBased([]int{3, 1, 2})
	if err != nil {
		return nil, err
	}
	// The printed rows give, for each external register, the local name
	// each process uses (physical→local). The model's fᵢ is the inverse.
	fp, fq := pPrinted.Inverse(), qPrinted.Inverse()
	t := &stats.Table{
		Title:  "Table I — example of an anonymous memory model (m=3)",
		Header: []string{"external observer", "process p", "process q"},
	}
	for phys := 0; phys < 3; phys++ {
		t.AddRow(
			fmt.Sprintf("R[%d]", phys+1),
			fmt.Sprintf("R[%d]", fp.Inverse().Apply(phys)+1),
			fmt.Sprintf("R[%d]", fq.Inverse().Apply(phys)+1),
		)
	}
	t.AddRow("permutation", "2, 3, 1", "3, 1, 2")
	if fp.Apply(2-1) != 0 || fq.Apply(3-1) != 0 {
		return nil, fmt.Errorf("experiments: Table I verification failed: p's R[2]→R[%d], q's R[3]→R[%d]",
			fp.Apply(1)+1, fq.Apply(2)+1)
	}
	t.Notes = append(t.Notes,
		"verified: p's R[2] and q's R[3] denote the same physical register R[1] (§I-A)")
	return t, nil
}

// figureRun is a shared behavioral battery for F1/F2, closed by an
// exhaustive check of the smallest instance.
func figureRun(title string, alg anonmutex.Algorithm, sizes []struct{ n, m int }, wantOwned func(m int) string) (*stats.Table, error) {
	t := &stats.Table{
		Title:  title,
		Header: []string{"n", "m", "sessions", "entries", "ME-violations", "owned@entry", "expected", "mean lock steps", "completed"},
	}
	const sessions = 3
	for _, sz := range sizes {
		factory, err := sched.Factory(alg, sz.n, sz.m, false)
		if err != nil {
			return nil, err
		}
		res, err := sched.Run(sched.Config{
			N: sz.n, M: sz.m,
			NewMachine: factory,
			Policy:     sched.NewRandom(uint64(97 + sz.n*10 + sz.m)),
			Sessions:   sessions,
			Adversary:  perm.RandomAdversary{Seed: 11},
			MaxSteps:   20_000_000,
		})
		if err != nil {
			return nil, err
		}
		var steps stats.Summary
		owned := map[int]bool{}
		for _, ps := range res.PerProc {
			steps.Add(float64(ps.LockSteps))
			owned[ps.OwnedAtEntry] = true
		}
		ownedStr := intSetString(owned)
		t.AddRow(sz.n, sz.m, sessions, res.Entries, len(res.Violations), ownedStr,
			wantOwned(sz.m), steps.Mean(), res.Completed)
	}
	res, err := scenario.Check(scenario.Spec{Algorithm: alg, N: 2, M: 3})
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"exhaustive model check n=2 m=3: %d states, %d transitions, ME violations %d, progress traps %d",
		res.States, res.Transitions, res.MEViolations, res.Traps))
	return t, nil
}

func intSetString(set map[int]bool) string {
	var vals []int
	for v := range set {
		vals = append(vals, v)
	}
	sort.Ints(vals)
	s := ""
	for i, v := range vals {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprint(v)
	}
	return s
}

// Figure1 reproduces Algorithm 1's behavior: deadlock-free completion, no
// ME violations on random schedules, and the RW entry cost (a process
// enters only when it owns all m registers).
func Figure1() (*stats.Table, error) {
	return figureRun(
		"Figure 1 — Algorithm 1 (anonymous RW, m ∈ M(n), m ≥ n)",
		anonmutex.RW,
		[]struct{ n, m int }{{2, 3}, {3, 5}, {4, 5}, {6, 7}, {4, 25}},
		func(m int) string { return fmt.Sprintf("=%d (all m)", m) },
	)
}

// Figure2 reproduces Algorithm 2's behavior, including the degenerate
// m = 1 case and the majority entry cost.
func Figure2() (*stats.Table, error) {
	return figureRun(
		"Figure 2 — Algorithm 2 (anonymous RMW, m ∈ M(n))",
		anonmutex.RMW,
		[]struct{ n, m int }{{2, 1}, {2, 3}, {3, 5}, {6, 7}, {4, 25}},
		func(m int) string { return fmt.Sprintf(">%d (majority)", m/2) },
	)
}

// TableII reproduces the paper's Table II — the global picture — as
// machine-checked verdicts: sufficiency via exhaustive exploration of a
// legal size, necessity via the trap/wedge found on an illegal size.
func TableII() (*stats.Table, error) {
	t := &stats.Table{
		Title:  "Table II — n-process anonymous mutex: conditions verified mechanically (n=2)",
		Header: []string{"registers", "condition", "instance", "verdict", "evidence"},
	}
	cells := []struct {
		label          string
		alg            anonmutex.Algorithm
		legal, illegal int
	}{
		{"RW anonymous", anonmutex.RW, 3, 4},
		{"RMW anonymous", anonmutex.RMW, 3, 2},
	}
	for _, c := range cells {
		legal, err := scenario.Check(scenario.Spec{Algorithm: c.alg, N: 2, M: c.legal})
		if err != nil {
			return nil, err
		}
		verdict := "HOLDS"
		if !legal.OK() {
			verdict = "FAILED"
		}
		t.AddRow(c.label, "sufficient (this paper)", fmt.Sprintf("m=%d ∈ M(2)", c.legal), verdict,
			fmt.Sprintf("exhaustive: %d states, 0 ME, 0 traps", legal.States))

		illegal, err := scenario.Check(scenario.Spec{Algorithm: c.alg, N: 2, M: c.illegal, Unchecked: true})
		if err != nil {
			return nil, err
		}
		verdict = "HOLDS"
		if illegal.Traps == 0 && illegal.MEViolations == 0 {
			verdict = "FAILED"
		}
		src := "this paper (Thm 5)"
		if c.label == "RW anonymous" {
			src = "[21] (via Thm 5)"
		}
		t.AddRow(c.label, "necessary "+src, fmt.Sprintf("m=%d ∉ M(2)", c.illegal), verdict,
			fmt.Sprintf("trap region: %d states with no completing continuation", illegal.Traps))
	}
	t.Notes = append(t.Notes,
		"sufficiency: every reachable state satisfies ME and can reach a lock/unlock completion",
		"necessity: on m ∉ M(n) the checker finds the wedge Theorem 5 predicts")
	return t, nil
}

// Theorem5 runs the ring construction grid for Algorithm 2 (the RMW lower
// bound is the paper's new result) and the greedy strawman, showing both
// horns of the dichotomy.
func Theorem5() (*stats.Table, error) {
	const n = 4
	t := &stats.Table{
		Title:  fmt.Sprintf("Theorem 5 — lock-step ring executions (n=%d, Algorithm 2 and strawman)", n),
		Header: []string{"m", "m∈M(n)", "ℓ", "step", "alg2 outcome", "rounds", "symmetry", "strawman outcome"},
	}
	grid, err := lowerbound.Grid(anonmutex.RMW, n, 1, 24, 0)
	if err != nil {
		return nil, err
	}
	for _, e := range grid {
		straw := "-"
		if !e.InM {
			sv, err := lowerbound.Run(anonmutex.Greedy, e.Witness, e.M, 0)
			if err != nil {
				return nil, err
			}
			straw = fmt.Sprintf("%v (%d/%d in CS)", sv.Outcome, sv.Entrants, sv.L)
		}
		t.AddRow(e.M, e.InM, e.Witness, e.Verdict.Step, e.Verdict.Outcome.String(),
			e.Verdict.Rounds, e.Verdict.SymmetryHeld, straw)
	}
	t.Notes = append(t.Notes,
		"m ∉ M(n): Algorithm 2 livelocks (deadlock-freedom horn); the broken strawman has all ℓ processes enter together (ME horn)",
		"m ∈ M(n): symmetry cannot be maintained and some process enters — matching the tight characterization")
	return t, nil
}

// EntryCost reproduces the paper's §I-C complexity comparison: to enter,
// Algorithm 1 must read its identity from ALL m registers while
// Algorithm 2 needs only a majority. Solo and contended runs.
func EntryCost() (*stats.Table, error) {
	t := &stats.Table{
		Title:  "Entry cost — RW (all m) vs RMW (majority), solo and under contention",
		Header: []string{"n", "m", "model", "owned@entry", "need", "solo lock steps", "contended mean steps"},
	}
	for _, n := range []int{2, 3, 4, 6} {
		m := mnum.MinRW(n)
		for _, alg := range []anonmutex.Algorithm{anonmutex.RW, anonmutex.RMW} {
			factory, err := sched.Factory(alg, n, m, false)
			if err != nil {
				return nil, err
			}
			need := fmt.Sprintf("=%d", m)
			if alg == anonmutex.RMW {
				need = fmt.Sprintf(">%d", m/2)
			}
			solo, err := sched.Run(sched.Config{
				N: 1, M: m, NewMachine: factory, Sessions: 1, MaxSteps: 1_000_000,
			})
			if err != nil {
				return nil, err
			}
			cont, err := sched.Run(sched.Config{
				N: n, M: m, NewMachine: factory, Sessions: 3,
				Policy: sched.NewRandom(uint64(31 * n)), MaxSteps: 20_000_000,
			})
			if err != nil {
				return nil, err
			}
			var steps stats.Summary
			owned := map[int]bool{}
			for _, ps := range cont.PerProc {
				steps.Add(float64(ps.LockSteps))
				owned[ps.OwnedAtEntry] = true
			}
			t.AddRow(n, m, strings.ToUpper(alg.String()), intSetString(owned), need,
				solo.PerProc[0].LockSteps, steps.Mean())
		}
	}
	t.Notes = append(t.Notes,
		"solo RW = 2m+1 ops (m claims + m+1 snapshots); solo RMW = 2m ops (m CAS + m reads)",
		"the RW algorithm must saturate the memory; the RMW algorithm stops at a strict majority")
	return t, nil
}

// Ablations quantifies the design choices (experiment E8): the ⊥-claim
// policy, the average tie-break rule, and Algorithm 2's wait-for-empty.
func Ablations() (*stats.Table, error) {
	t := &stats.Table{
		Title:  "E8 — ablations",
		Header: []string{"variant", "configuration", "outcome", "steps", "entries"},
	}
	// Claim policies under a random schedule.
	for _, tc := range []struct {
		name string
		cfg  core.Alg1Config
	}{
		{"alg1 claim=first-bottom", core.Alg1Config{Choice: core.ChooseFirstBottom}},
		{"alg1 claim=last-bottom", core.Alg1Config{Choice: core.ChooseLastBottom}},
	} {
		res, err := sched.Run(sched.Config{
			N: 3, M: 5,
			NewMachine: sched.Alg1Factory(3, 5, tc.cfg),
			Policy:     sched.NewRandom(404),
			Sessions:   3,
			MaxSteps:   20_000_000,
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(tc.name, "n=3 m=5 random sched", okOrViolation(res), res.Steps, res.Entries)
	}
	// The tie-break rule is load-bearing: without it, a legal size wedges.
	wedge, err := sched.Run(sched.Config{
		N: 2, M: 3,
		NewMachine:   sched.Alg1UncheckedFactory(3, core.Alg1Config{Tie: core.TieBreakNever}),
		Adversary:    perm.RotationAdversary{Step: 1},
		Policy:       sched.NewLockStep(2),
		DetectCycles: true,
		MaxSteps:     1_000_000,
	})
	if err != nil {
		return nil, err
	}
	outcome := "completed"
	if wedge.CycleDetected {
		outcome = "LIVELOCK (cycle)"
	}
	t.AddRow("alg1 tie-break=never", "n=2 m=3 lock-step rotation", outcome, wedge.Steps, wedge.Entries)
	// Algorithm 2 without the wait-for-empty loop still completes on fair
	// random schedules (the wait matters for adversarial ones).
	skip, err := sched.Run(sched.Config{
		N: 3, M: 5,
		NewMachine: sched.Alg2Factory(3, 5, core.Alg2Config{SkipWaitForEmpty: true}),
		Policy:     sched.NewRandom(505),
		Sessions:   3,
		MaxSteps:   20_000_000,
	})
	if err != nil {
		return nil, err
	}
	t.AddRow("alg2 skip-wait-for-empty", "n=3 m=5 random sched", okOrViolation(skip), skip.Steps, skip.Entries)
	base, err := sched.Run(sched.Config{
		N: 3, M: 5,
		NewMachine: sched.Alg2Factory(3, 5, core.Alg2Config{}),
		Policy:     sched.NewRandom(505),
		Sessions:   3,
		MaxSteps:   20_000_000,
	})
	if err != nil {
		return nil, err
	}
	t.AddRow("alg2 paper", "n=3 m=5 random sched", okOrViolation(base), base.Steps, base.Entries)
	t.Notes = append(t.Notes,
		"removing the average rule livelocks even on legal sizes: the rule, not just m ∈ M(n), carries deadlock-freedom",
		"claim policy affects constants only; correctness is unaffected (the paper allows any ⊥ register)")
	return t, nil
}

func okOrViolation(res *sched.Result) string {
	switch {
	case len(res.Violations) > 0:
		return "ME VIOLATION"
	case res.Completed:
		return "completed"
	case res.CycleDetected:
		return "LIVELOCK (cycle)"
	default:
		return "step bound"
	}
}

// Fairness measures lockouts (experiment E9): deadlock-freedom permits
// unbounded bypassing, and the algorithms do exhibit it. The "most in one
// wait" column is the claim: a FIFO lock lets each of the other n-1
// processes in at most once ahead of a waiter, so a single lock() that
// others bypass n times or more is something only an unfair lock allows.
func Fairness() (*stats.Table, error) {
	t := &stats.Table{
		Title:  "E9 — fairness under contention (n=4, 10 sessions each)",
		Header: []string{"model", "m", "proc", "entries", "bypasses", "most in one wait", "max wait", "mean wait"},
	}
	const n, m = 4, 5
	for _, alg := range []anonmutex.Algorithm{anonmutex.RW, anonmutex.RMW} {
		factory, err := sched.Factory(alg, n, m, false)
		if err != nil {
			return nil, err
		}
		res, err := sched.Run(sched.Config{
			N: n, M: m, NewMachine: factory,
			Policy:   sched.NewRandom(606),
			Sessions: 10,
			MaxSteps: 50_000_000,
		})
		if err != nil {
			return nil, err
		}
		most := 0
		for i, ps := range res.PerProc {
			t.AddRow(strings.ToUpper(alg.String()), m, i, ps.Entries, ps.Bypasses, ps.MaxBypasses, ps.MaxWaitSteps, ps.MeanWait)
			most = max(most, ps.MaxBypasses)
		}
		t.Notes = append(t.Notes, fmt.Sprintf("%s: one lock() was bypassed %d times; a FIFO lock allows at most n-1 = %d",
			strings.ToUpper(alg.String()), most, n-1))
	}
	t.Notes = append(t.Notes, "bypassed ≥ n times in one wait: deadlock-free ≠ starvation-free (§II-E)")
	return t, nil
}

// PermInvariance verifies that the anonymity adversary cannot affect
// correctness (experiment E10): identical workloads under identity,
// random, and rotation permutations.
func PermInvariance() (*stats.Table, error) {
	t := &stats.Table{
		Title:  "E10 — anonymity invariance (alg1, n=3, m=5, same schedule seed)",
		Header: []string{"permutations", "completed", "ME-violations", "entries", "steps"},
	}
	advs := []struct {
		name string
		adv  perm.Adversary
	}{
		{"identity (non-anonymous)", perm.IdentityAdversary{}},
		{"random seed=1", perm.RandomAdversary{Seed: 1}},
		{"random seed=2", perm.RandomAdversary{Seed: 2}},
		{"rotation step=1", perm.RotationAdversary{Step: 1}},
		{"rotation step=2", perm.RotationAdversary{Step: 2}},
	}
	for _, a := range advs {
		res, err := sched.Run(sched.Config{
			N: 3, M: 5,
			NewMachine: sched.Alg1Factory(3, 5, core.Alg1Config{}),
			Adversary:  a.adv,
			Policy:     sched.NewRandom(808),
			Sessions:   3,
			MaxSteps:   20_000_000,
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(a.name, res.Completed, len(res.Violations), res.Entries, res.Steps)
	}
	t.Notes = append(t.Notes, "safety and progress hold under every permutation assignment; only step counts vary")
	return t, nil
}

// ScenarioSuite (experiment S1) sweeps the scenario registry: every named
// scenario runs on the simulated substrate, and every scenario the real
// locks can express (legal size, paper algorithms, no cycle detection)
// additionally runs on the hardware-atomic substrate. One row per
// scenario/substrate pair demonstrates that a single declarative
// description drives both execution engines.
func ScenarioSuite() (*stats.Table, error) {
	t := &stats.Table{
		Title:  "S1 — scenario registry on both substrates",
		Header: []string{"scenario", "substrate", "alg", "n", "m", "outcome", "entries", "ME-violations", "steps"},
	}
	for _, name := range scenario.Names() {
		spec, err := scenario.Lookup(name)
		if err != nil {
			return nil, err
		}
		simRes, err := scenario.RunSim(spec)
		if err != nil {
			return nil, fmt.Errorf("scenario %s (sim): %w", name, err)
		}
		t.AddRow(name, "sim", spec.Algorithm, spec.N, spec.M, okOrViolation(simRes),
			simRes.Entries, len(simRes.Violations), simRes.Steps)

		if spec.ValidateReal() != nil {
			continue
		}
		realRes, err := scenario.RunReal(spec)
		if err != nil {
			return nil, fmt.Errorf("scenario %s (real): %w", name, err)
		}
		outcome := "completed"
		if realRes.MEViolations > 0 {
			outcome = "ME VIOLATION"
		}
		t.AddRow(name, "real", spec.Algorithm, spec.N, spec.M, outcome,
			realRes.Entries, realRes.MEViolations, "-")
	}
	t.Notes = append(t.Notes,
		"sim rows are fully deterministic; real rows are checked on aggregate guarantees (entries, mutual exclusion)",
		"scenarios that need the simulated substrate (illegal sizes, cycle detection, the strawman) run there only")
	return t, nil
}
