// Package scenario defines the declarative experiment description shared
// by every harness in the repository: one Spec names an algorithm, a
// system size, an anonymity adversary, a scheduling policy, a workload
// profile, sessions, and seeds — everything needed to run the execution
// on either substrate (the simulated scheduler or the real hardware-atomic
// locks) from a single description.
//
// Specs are plain data with a canonical JSON encoding, so scenarios can be
// stored in files, passed between tools, and diffed across runs. A named
// registry ships the built-in scenarios. A spec runs three ways: RunSim
// (one schedule on the simulated scheduler), Check (every interleaving,
// model-checked) and RunReal (goroutines over the real locks).
// cmd/anonsim runs any spec from a name, inline JSON or a JSON file,
// and the experiment suite (internal/experiments, anonsim -experiment)
// sweeps the whole registry.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"anonmutex"
	"anonmutex/internal/workload"
	"anonmutex/mnum"
)

// Schedule and permutation names used in specs. The string forms are the
// canonical JSON vocabulary.
const (
	SchedRoundRobin = "rr"       // fair cyclic schedule
	SchedRandom     = "random"   // seeded uniform schedule
	SchedLockStep   = "lockstep" // the Theorem 5 adversary

	PermsIdentity = "identity" // non-anonymous memory
	PermsRandom   = "random"   // seeded uniform permutations
	PermsRotation = "rotation" // the Theorem 5 ring adversary
)

// Spec is one declarative scenario. The zero value of every optional
// field means "default"; Normalize fills defaults and validates. Field
// names form the JSON schema used by scenario files.
type Spec struct {
	// Name identifies the scenario in the registry and in reports.
	Name string `json:"name,omitempty"`
	// Doc is a one-line description for listings.
	Doc string `json:"doc,omitempty"`

	// Algorithm is rw, rmw, or greedy (its JSON form is the name).
	Algorithm anonmutex.Algorithm `json:"algorithm"`
	// N is the number of processes; M the number of anonymous registers
	// (0: the smallest legal size above 1 for the algorithm; m = 1 is
	// legal for rmw and must be given).
	N int `json:"n"`
	M int `json:"m,omitempty"`
	// Unchecked skips the m ∈ M(n) validation — required for the
	// lower-bound scenarios that deliberately use illegal sizes.
	Unchecked bool `json:"unchecked,omitempty"`

	// Sessions is the lock/unlock cycles per process (default 1); CSTicks
	// the scheduler ticks spent inside the critical section (simulated
	// substrate only).
	Sessions int `json:"sessions,omitempty"`
	CSTicks  int `json:"cs_ticks,omitempty"`

	// Schedule is rr, random, or lockstep (simulated substrate only; the
	// real substrate's schedule is the Go runtime's). Seed drives the
	// random schedule.
	Schedule string `json:"schedule,omitempty"`
	Seed     uint64 `json:"seed,omitempty"`

	// Perms is identity, random, or rotation; PermSeed and RotationStep
	// parameterize the latter two.
	Perms        string `json:"perms,omitempty"`
	PermSeed     uint64 `json:"perm_seed,omitempty"`
	RotationStep int    `json:"rotation_step,omitempty"`

	// Workload names the session profile (uniform, bursty, skewed; see
	// internal/workload) and WorkloadSeed its jitter seed. Both
	// substrates draw per-session work from them: the real runner spins
	// through each session's critical-section and remainder work, and
	// the simulated scheduler scales its per-session CS ticks by the
	// profile when CSTicks > 0.
	Workload     string `json:"workload,omitempty"`
	WorkloadSeed uint64 `json:"workload_seed,omitempty"`

	// DeterministicClaims resolves Algorithm 1's "any ⊥ register" choice
	// to the first hole instead of a seeded random one, making runs fully
	// deterministic (the cross-substrate equivalence configuration).
	DeterministicClaims bool `json:"deterministic_claims,omitempty"`

	// HonestSnapshots schedules each double-scan read separately;
	// DetectCycles stops with a livelock verdict on a repeated global
	// state (both simulated substrate only).
	HonestSnapshots bool `json:"honest_snapshots,omitempty"`
	DetectCycles    bool `json:"detect_cycles,omitempty"`

	// MaxSteps bounds simulated runs (default 1_000_000); TraceCap
	// retains that many trace events (0: none).
	MaxSteps int `json:"max_steps,omitempty"`
	TraceCap int `json:"trace_cap,omitempty"`
}

// Normalize fills defaults and validates the spec, returning the
// completed copy. The receiver is not modified.
func (s Spec) Normalize() (Spec, error) {
	switch s.Algorithm {
	case anonmutex.RW, anonmutex.RMW, anonmutex.Greedy:
	case 0:
		return s, fmt.Errorf("scenario: algorithm is required (rw, rmw, or greedy)")
	default:
		return s, fmt.Errorf("scenario: unknown algorithm %v", s.Algorithm)
	}
	if s.N < 1 {
		return s, fmt.Errorf("scenario: need n >= 1, got %d", s.N)
	}
	if s.M == 0 {
		switch s.Algorithm {
		case anonmutex.RW:
			s.M = mnum.MinRW(s.N)
		case anonmutex.RMW:
			s.M = mnum.MinRMWAbove(s.N)
		default:
			return s, fmt.Errorf("scenario: %s needs an explicit m", s.Algorithm)
		}
	}
	if s.M < 1 {
		return s, fmt.Errorf("scenario: need m >= 1, got %d", s.M)
	}
	if !s.Unchecked && s.Algorithm != anonmutex.Greedy {
		var err error
		if s.Algorithm == anonmutex.RW {
			err = mnum.ValidateRW(s.N, s.M)
		} else {
			err = mnum.ValidateRMW(s.N, s.M)
		}
		if err != nil {
			return s, fmt.Errorf("scenario: %w (set unchecked to run anyway)", err)
		}
	}
	if s.Sessions == 0 {
		s.Sessions = 1
	}
	if s.Sessions < 0 {
		return s, fmt.Errorf("scenario: need sessions >= 1, got %d", s.Sessions)
	}
	if s.CSTicks < 0 {
		return s, fmt.Errorf("scenario: need cs_ticks >= 0, got %d", s.CSTicks)
	}
	if s.Schedule == "" {
		s.Schedule = SchedRoundRobin
	}
	switch s.Schedule {
	case SchedRoundRobin, SchedRandom, SchedLockStep:
	default:
		return s, fmt.Errorf("scenario: unknown schedule %q", s.Schedule)
	}
	if s.Perms == "" {
		s.Perms = PermsIdentity
	}
	switch s.Perms {
	case PermsIdentity, PermsRandom:
	case PermsRotation:
		// Step 0, or any multiple of m, rotates nothing: every process
		// would see the identity, a non-anonymous memory.
		if s.RotationStep == 0 {
			s.RotationStep = 1
		}
		if s.RotationStep < 0 || s.RotationStep%s.M == 0 {
			return s, fmt.Errorf("scenario: rotation_step %d is the identity rotation or negative (want 1 <= step, not a multiple of m = %d)", s.RotationStep, s.M)
		}
	default:
		return s, fmt.Errorf("scenario: unknown perms %q", s.Perms)
	}
	if s.Workload == "" {
		s.Workload = workload.Uniform.String()
	}
	switch s.Workload {
	case workload.Uniform.String(), workload.Bursty.String(), workload.Skewed.String():
	default:
		return s, fmt.Errorf("scenario: unknown workload %q (want uniform, bursty, or skewed)", s.Workload)
	}
	if s.MaxSteps == 0 {
		s.MaxSteps = 1_000_000
	}
	if s.MaxSteps < 0 || s.TraceCap < 0 {
		return s, fmt.Errorf("scenario: negative bounds")
	}
	return s, nil
}

// traffic is the session model both runners draw their plans from: the
// scenario's profile and seed over base scales of baseCS work units a
// critical section and 10 a remainder.
func (s Spec) traffic(baseCS int) workload.Spec {
	return workload.Spec{Profile: s.Workload, Seed: s.WorkloadSeed, BaseCS: baseCS, BaseRemainder: 10}
}

// JSON returns the spec's canonical (indented) JSON encoding.
func (s Spec) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// ParseJSON decodes and normalizes a spec from JSON. Unknown fields are
// rejected, so typos in scenario files fail loudly.
func ParseJSON(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: parsing spec: %w", err)
	}
	return s.Normalize()
}

// registry is the process-wide named-scenario table.
var registry = struct {
	sync.RWMutex
	specs map[string]Spec
}{specs: make(map[string]Spec)}

// Register validates s and adds it to the registry under its Name. It
// rejects anonymous and duplicate registrations.
func Register(s Spec) error {
	if s.Name == "" {
		return fmt.Errorf("scenario: cannot register a nameless spec")
	}
	norm, err := s.Normalize()
	if err != nil {
		return fmt.Errorf("scenario: registering %q: %w", s.Name, err)
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.specs[s.Name]; dup {
		return fmt.Errorf("scenario: %q is already registered", s.Name)
	}
	registry.specs[s.Name] = norm
	return nil
}

// Lookup returns the registered scenario with the given name.
func Lookup(name string) (Spec, error) {
	registry.RLock()
	defer registry.RUnlock()
	s, ok := registry.specs[name]
	if !ok {
		return Spec{}, fmt.Errorf("scenario: unknown scenario %q", name)
	}
	return s, nil
}

// Names returns every registered scenario name, sorted.
func Names() []string {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]string, 0, len(registry.specs))
	for name := range registry.specs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// mustRegister is the init-time registration helper for built-ins.
func mustRegister(s Spec) {
	if err := Register(s); err != nil {
		panic(err)
	}
}

// The built-in scenario library: the configurations the repository's
// documentation and experiments refer to by name.
func init() {
	mustRegister(Spec{
		Name: "smoke-rw", Doc: "smallest legal Algorithm 1 instance, fair schedule",
		Algorithm: anonmutex.RW, N: 2, M: 3, Sessions: 2,
	})
	mustRegister(Spec{
		Name: "smoke-rmw", Doc: "degenerate single-register Algorithm 2 instance",
		Algorithm: anonmutex.RMW, N: 2, M: 1, Sessions: 2,
	})
	mustRegister(Spec{
		Name: "contended-rw", Doc: "4 processes hammering Algorithm 1 under a random schedule and random anonymity",
		Algorithm: anonmutex.RW, N: 4, Sessions: 3,
		Schedule: SchedRandom, Seed: 97,
		Perms: PermsRandom, PermSeed: 11,
		MaxSteps: 20_000_000,
	})
	mustRegister(Spec{
		Name: "contended-rmw", Doc: "4 processes hammering Algorithm 2 under a random schedule and random anonymity",
		Algorithm: anonmutex.RMW, N: 4, Sessions: 3,
		Schedule: SchedRandom, Seed: 97,
		Perms: PermsRandom, PermSeed: 11,
		MaxSteps: 20_000_000,
	})
	mustRegister(Spec{
		Name: "rotation-adversary", Doc: "Algorithm 1 against the Theorem 5 ring adversary on a legal size",
		Algorithm: anonmutex.RW, N: 3, M: 5, Sessions: 3,
		Perms: PermsRotation, RotationStep: 1,
	})
	mustRegister(Spec{
		Name: "lockstep-livelock", Doc: "the Theorem 5 wedge: illegal size, lock-step schedule, rotation anonymity",
		Algorithm: anonmutex.RMW, N: 2, M: 2, Unchecked: true,
		Schedule: SchedLockStep,
		Perms:    PermsRotation, RotationStep: 1,
		DetectCycles: true,
	})
	mustRegister(Spec{
		Name: "honest-snapshots", Doc: "Algorithm 1 with every double-scan read scheduled separately",
		Algorithm: anonmutex.RW, N: 3, M: 5, Sessions: 2,
		Schedule: SchedRandom, Seed: 5,
		HonestSnapshots: true,
		MaxSteps:        20_000_000,
	})
	mustRegister(Spec{
		Name: "bursty-rmw", Doc: "Algorithm 2 under a bursty traffic model (jittered per-session CS ticks on both substrates)",
		Algorithm: anonmutex.RMW, N: 4, Sessions: 4,
		Schedule: SchedRandom, Seed: 19,
		Workload: "bursty", WorkloadSeed: 3,
		CSTicks:  2,
		MaxSteps: 20_000_000,
	})
	mustRegister(Spec{
		Name: "heavy-hitter-rw", Doc: "Algorithm 1 with one hammering process (skewed traffic model)",
		Algorithm: anonmutex.RW, N: 3, M: 5, Sessions: 3,
		Schedule: SchedRandom, Seed: 29,
		Workload: "skewed", WorkloadSeed: 7,
		CSTicks:  1,
		MaxSteps: 20_000_000,
	})
	mustRegister(Spec{
		Name: "equivalence", Doc: "the cross-substrate determinism configuration: identity perms, deterministic claims",
		Algorithm: anonmutex.RW, N: 3, M: 5, Sessions: 2,
		Perms:               PermsIdentity,
		DeterministicClaims: true,
	})
}
