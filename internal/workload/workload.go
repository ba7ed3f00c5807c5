// Package workload is the repository's single traffic model: one
// seed-deterministic, JSON-describable Spec (see spec.go) composes a
// key-popularity distribution, an arrival process, an op mix, and
// session-length generators, and every load-producing layer — the
// loadgen client fleets, the scenario runners on both substrates, the
// experiment catalog, and the CLIs — draws from it through per-stream
// Sources.
//
// Everything derives from a seed so that harness runs replay exactly.
// Durations are expressed in abstract "work units": the real-concurrency
// harnesses spin for that many units (Spin), the simulated benches
// convert them to scheduler ticks.
package workload

import (
	"fmt"
)

// Profile names a session-length contention pattern.
type Profile uint8

// Built-in profiles.
const (
	// Uniform: every session has the same CS and remainder lengths —
	// maximum steady contention.
	Uniform Profile = iota + 1
	// Bursty: long idle periods punctuated by clusters of short sessions.
	Bursty
	// Skewed: one stream (index 0) hammers the lock while others touch
	// it occasionally.
	Skewed
)

// String returns the profile's canonical token. Every value — including
// unknown ones — renders to a token ParseProfile accepts, so the
// String/Parse round trip never loses information.
func (p Profile) String() string {
	switch p {
	case Uniform:
		return "uniform"
	case Bursty:
		return "bursty"
	case Skewed:
		return "skewed"
	default:
		return fmt.Sprintf("profile(%d)", uint8(p))
	}
}

// ParseProfile inverts Profile.String: it accepts the built-in names and
// the "profile(N)" token String renders for unknown values. Anything
// else is an error — callers that need a *usable* profile (Spec
// normalization) additionally reject parseable-but-unknown values, so a
// typo in a JSON spec fails loudly instead of defaulting to uniform.
func ParseProfile(s string) (Profile, error) {
	switch s {
	case "uniform":
		return Uniform, nil
	case "bursty":
		return Bursty, nil
	case "skewed":
		return Skewed, nil
	}
	var v uint8
	if n, err := fmt.Sscanf(s, "profile(%d)", &v); err == nil && n == 1 {
		return Profile(v), nil
	}
	return 0, fmt.Errorf("workload: unknown profile %q (want uniform, bursty, or skewed)", s)
}

// Session is one lock acquisition's workload.
type Session struct {
	// CSWork is the critical-section length in work units.
	CSWork int
	// RemainderWork is the post-unlock think time in work units.
	RemainderWork int
}

// Plan is a fully materialized workload: Plan[i] lists stream i's
// sessions in order.
type Plan [][]Session

// Spin burns roughly units of CPU work; the benchmark harness uses it for
// critical-section and remainder work in real-concurrency runs. It returns
// a value to keep the loop from being optimized away.
func Spin(units int) uint64 {
	acc := uint64(1469598103934665603)
	for i := 0; i < units*16; i++ {
		acc ^= uint64(i)
		acc *= 1099511628211
	}
	return acc
}
