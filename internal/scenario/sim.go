package scenario

import (
	"anonmutex/internal/explore"
	"anonmutex/internal/perm"
	"anonmutex/internal/sched"
	"anonmutex/internal/workload"
)

// RunSim executes the scenario on the simulated substrate: one
// deterministic schedule of internal/sched over simulated anonymous
// memory. With CSTicks > 0 and a non-uniform traffic profile, each
// critical section's ticks come from the same session plan the real
// runner spins through, scaled so the profile's base equals CSTicks (a
// uniform profile is the constant-CSTicks case and needs no plan).
func RunSim(s Spec) (*sched.Result, error) {
	s, err := s.Normalize()
	if err != nil {
		return nil, err
	}
	factory, err := sched.Factory(s.Algorithm, s.N, s.M, s.Unchecked)
	if err != nil {
		return nil, err
	}
	cfg := sched.Config{
		N: s.N, M: s.M,
		NewMachine:      factory,
		Adversary:       s.adversary(),
		Sessions:        s.Sessions,
		CSTicks:         s.CSTicks,
		MaxSteps:        s.MaxSteps,
		HonestSnapshots: s.HonestSnapshots,
		DetectCycles:    s.DetectCycles,
		TraceCap:        s.TraceCap,
	}
	switch s.Schedule {
	case SchedRoundRobin:
		cfg.Policy = &sched.RoundRobin{}
	case SchedRandom:
		cfg.Policy = sched.NewRandom(s.Seed)
	case SchedLockStep:
		cfg.Policy = sched.NewLockStep(s.N)
	}
	if s.CSTicks > 0 && s.Workload != workload.Uniform.String() {
		plan, err := workload.SpecPlan(s.traffic(s.CSTicks), s.N, s.Sessions)
		if err != nil {
			return nil, err
		}
		cfg.CSTicksFor = func(proc, session int) int {
			return plan[proc][min(session, len(plan[proc])-1)].CSWork
		}
	}
	return sched.Run(cfg)
}

// Check explores every interleaving of the scenario's processes and
// sessions (internal/explore) and reports mutual exclusion and
// deadlock-freedom over the whole reachable space. MaxSteps bounds the
// number of states; the schedule, its seed, CSTicks and the traffic model
// do not apply, since every schedule is explored.
func Check(s Spec) (*explore.Result, error) {
	s, err := s.Normalize()
	if err != nil {
		return nil, err
	}
	factory, err := sched.Factory(s.Algorithm, s.N, s.M, s.Unchecked)
	if err != nil {
		return nil, err
	}
	return explore.Explore(explore.Config{
		N: s.N, M: s.M,
		Factory:   factory,
		Adversary: s.adversary(),
		Sessions:  s.Sessions,
		MaxStates: s.MaxSteps,
	})
}

// adversary is the simulated substrate's permutation adversary for s.
func (s Spec) adversary() perm.Adversary {
	switch s.Perms {
	case PermsRandom:
		return perm.RandomAdversary{Seed: s.PermSeed}
	case PermsRotation:
		return perm.RotationAdversary{Step: s.RotationStep}
	default:
		return perm.IdentityAdversary{}
	}
}
