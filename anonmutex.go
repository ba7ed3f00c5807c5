// Package anonmutex implements symmetric deadlock-free mutual exclusion
// over anonymous shared memory, reproducing the algorithms of Aghazadeh,
// Imbs, Raynal, Taubenfeld, and Woelfel, "Optimal Memory-Anonymous
// Symmetric Deadlock-Free Mutual Exclusion" (PODC 2019).
//
// # The model
//
// Processes communicate only through an array of m atomic registers, and
// an adversary gives every process its own private permutation of the
// register indices: the same local name can denote different physical
// registers for different processes ("memory anonymity"). Process
// identities are opaque and support only equality comparison ("symmetric
// algorithms"). Let
//
//	M(n) = { m : ∀ ℓ, 1 < ℓ ≤ n : gcd(ℓ, m) = 1 }.
//
// The paper proves this set tightly characterizes the solvable memory
// sizes, and this package implements both optimal algorithms behind one
// Lock type; an Algorithm value given to NewLock picks the machine:
//
//   - RW (the paper's Algorithm 1, NewRWLock) uses read/write registers
//     only and works for every m ∈ M(n) with m ≥ n. A process enters the
//     critical section only after observing a snapshot in which it owns
//     all m registers.
//   - RMW (Algorithm 2, NewRMWLock) additionally uses compare&swap and
//     works for every m ∈ M(n), including the degenerate m = 1. A process
//     enters after owning a strict majority of the registers.
//
// # Usage
//
//	lock, err := anonmutex.NewRWLock(4) // NewLock(anonmutex.RW, 4): 4 processes, m = 5 registers
//	if err != nil { ... }
//	p, err := lock.NewProcess() // one handle per participating goroutine
//	if err != nil { ... }
//	p.Lock()
//	// critical section
//	p.Unlock()
//
// Each process handle must be used by one goroutine at a time; Close
// returns a handle's slot to the lock so NewProcess can re-lease it to
// another goroutine. The locks are deadlock-free but — like the paper's
// algorithms — not starvation-free: an individual process can be bypassed
// arbitrarily often while the system as a whole always makes progress.
//
// Acquisition is abortable: LockCtx(ctx) abandons the attempt when the
// context ends, and TryLockFor(d) bounds it by a duration. An abandoned
// attempt withdraws — a bounded wait-free sweep erases the process's
// identity from every register, leaving the shared memory exactly as if
// it had never competed (see DESIGN.md for the protocol and its safety
// argument).
//
// # Architecture
//
// The algorithms are implemented once, as explicit state machines
// (internal/core) that request shared-memory operations and consume
// results. A unified execution engine (internal/engine) runs those
// machines on either of two substrates behind one Executor interface:
// hardware-atomic anonymous memory (internal/amem — what these locks
// use, via the engine's adaptive-backoff Driver) and simulated memory
// (internal/vmem — what the deterministic scheduler, model checker, and
// lower-bound constructions use). Because both substrates execute the
// identical op stream, simulated evidence (exhaustive model checking,
// adversarial schedules) transfers directly to the production locks; the
// engine's equivalence tests pin this down trace-for-trace.
//
// Executions are described declaratively by scenarios
// (internal/scenario): one JSON-encodable spec — algorithm, sizes,
// anonymity adversary, schedule, workload profile, seeds — runs on
// either substrate or under the model checker, from the anonsim command
// (-scenario, -substrate, -check) or the experiment suite (anonbench,
// which sweeps the whole registry and emits JSON with -json). The
// Algorithm type names the scenarios' protocols too, including the
// Greedy strawman no Lock runs. DESIGN.md has the layer diagram and the
// experiment catalog.
//
// Above the locks sits a service layer: internal/lockmgr shards a
// namespace of named locks (each lazily backed by its own
// anonymous-register arena, with a lease pool multiplexing unbounded
// clients onto the fixed n handles via Close/re-lease), lockd serves it
// over TCP (cmd/anonlockd), and cmd/anonload generates client load
// against either. DESIGN.md documents the whole stack.
//
// The companion package anonmutex/mnum exposes the M(n) number theory.
package anonmutex

import (
	"fmt"

	"anonmutex/internal/mset"
	"anonmutex/internal/perm"
	"anonmutex/internal/xrand"
)

// PermutationMode selects how the built-in anonymity adversary assigns
// register-name permutations to processes.
type PermutationMode uint8

const (
	// PermRandom assigns independent seeded random permutations — the
	// default, modeling an arbitrary adversary.
	PermRandom PermutationMode = iota + 1
	// PermIdentity gives every process the identity permutation, i.e. a
	// conventional non-anonymous memory. Useful for baselines: it
	// isolates the cost of the algorithm from the cost of anonymity.
	PermIdentity
	// PermRotation gives process i the rotation by i·step — the Theorem 5
	// ring adversary.
	PermRotation
)

// String returns the mode name.
func (m PermutationMode) String() string {
	switch m {
	case PermRandom:
		return "random"
	case PermIdentity:
		return "identity"
	case PermRotation:
		return "rotation"
	default:
		return fmt.Sprintf("PermutationMode(%d)", uint8(m))
	}
}

// config carries a lock's options and, beside them, its algorithm.
type config struct {
	m            int // 0: derive from n
	seed         uint64
	mode         PermutationMode
	rotationStep int
	firstBottom  bool // RW: deterministic hole choice instead of random
	noFastPath   bool // RMW: disable the solo fast path
	// alg is NewLock's argument, kept in the padding after the two bools: a
	// field of Lock's own would push it out of the 144-byte size class.
	alg Algorithm
}

// Option configures NewLock (and so NewRWLock and NewRMWLock).
type Option func(*config) error

// WithRegisters sets the anonymous memory size m explicitly. The
// constructor validates m against the paper's tight characterization
// (m ∈ M(n), plus m ≥ n for the RW model).
func WithRegisters(m int) Option {
	return func(c *config) error {
		if m < 1 {
			return fmt.Errorf("anonmutex: memory size must be >= 1, got %d", m)
		}
		c.m = m
		return nil
	}
}

// WithSeed sets the seed for all randomized behavior (the permutation
// adversary and Algorithm 1's randomized hole choice). Locks with equal
// configuration and seed behave identically. The default seed is 1.
func WithSeed(seed uint64) Option {
	return func(c *config) error {
		c.seed = seed
		return nil
	}
}

// WithPermutations selects the anonymity adversary. step is used only by
// PermRotation.
func WithPermutations(mode PermutationMode, step int) Option {
	return func(c *config) error {
		switch mode {
		case PermRandom, PermIdentity, PermRotation:
			c.mode = mode
			c.rotationStep = step
			return nil
		default:
			return fmt.Errorf("anonmutex: unknown permutation mode %v", mode)
		}
	}
}

// WithDeterministicClaims makes RW processes claim the lowest-indexed
// free register (the paper's "any ⊥ register" resolved deterministically)
// instead of a seeded random one. Mainly useful for reproducible traces;
// random claims collide less under contention. An RMW lock ignores it.
func WithDeterministicClaims() Option {
	return func(c *config) error {
		c.firstBottom = true
		return nil
	}
}

// WithoutSoloFastPath disables the uncontended fast path. By default an
// RMW process whose line 2 sweep wins every compare&swap enters the
// critical section directly, skipping the read-back sweep — m operations
// instead of 2m, exhaustively verified safe by the model checker
// (internal/explore). Disable it for step-count comparisons against the
// line-faithful simulator, which runs the paper's algorithm verbatim.
//
// An RW lock ignores this option: the analogous read/write-model shortcut
// (batch-claiming an all-⊥ snapshot) is provably unsafe — the model
// checker exhibits a two-processes-in-CS execution — so the RW lock
// always runs the paper's one-claim-per-snapshot protocol. See DESIGN.md
// ("Performance") for both results.
func WithoutSoloFastPath() Option {
	return func(c *config) error {
		c.noFastPath = true
		return nil
	}
}

func buildConfig(opts []Option) (config, error) {
	c := config{seed: 1, mode: PermRandom}
	for _, o := range opts {
		if err := o(&c); err != nil {
			return config{}, err
		}
	}
	return c, nil
}

// adversary materializes the configured permutation adversary.
func (c config) adversary() perm.Adversary {
	switch c.mode {
	case PermIdentity:
		return perm.IdentityAdversary{}
	case PermRotation:
		return perm.RotationAdversary{Step: c.rotationStep}
	default:
		return perm.RandomAdversary{Seed: c.seed}
	}
}

// rng derives a per-process PRNG.
func (c config) rng(i int) *xrand.Rand {
	return xrand.New(xrand.Mix64(c.seed ^ (uint64(i)+0x1234)*0x9e3779b97f4a7c15))
}

// MinRegistersRW returns the smallest legal memory size for an n-process
// RWLock: the smallest m ≥ n in M(n) (the smallest prime above n).
func MinRegistersRW(n int) int { return mset.MinRW(n) }

// MinRegistersRMW returns the smallest non-degenerate legal memory size
// for an n-process RMWLock (m = 1 is also legal; see mnum.MinRMW).
func MinRegistersRMW(n int) int { return mset.MinRMWAbove(n) }
