// Package id implements symmetric process identities.
//
// The paper's symmetry requirement (§II-C) says process identities form a
// data type that supports only comparison for equality: no order, no
// arithmetic, no conversion to integers. Go cannot express "equality-only"
// in the type system, so this package enforces the discipline structurally:
//
//   - ID is an opaque struct; its only exported predicates are Equal and
//     IsNone. Algorithm code (internal/core) must use nothing else.
//   - The None value plays the role of the paper's default value ⊥, which
//     every register initially holds. None is not a process identity;
//     processes can only distinguish "mine" / "someone else's" / "⊥".
//   - Handle and FromHandle expose the internal 16-bit representation, but
//     only for the substrate layers (register packing, tracing, state
//     fingerprints). They must never appear in protocol logic; the
//     equivariance tests in internal/core verify that algorithm behavior is
//     invariant under renaming of identities, which would fail if ordering
//     leaked into a protocol decision.
//   - Generators can issue handles in a seeded pseudo-random order
//     (NewShuffledGenerator) so that even accidental reliance on creation
//     order is exercised by tests.
//
// The 16-bit handle bounds a system at MaxIDs concurrent identities, which
// is far beyond the paper's n (register packing in internal/register uses
// the remaining bits for write stamps).
package id

import (
	"fmt"
	"sync"

	"anonmutex/internal/xrand"
)

// MaxIDs is the maximum number of distinct identities a Generator can
// issue: handle 0 is reserved for None.
const MaxIDs = 1<<16 - 1

// ID is an opaque, symmetric process identity. The zero value is None (the
// paper's ⊥). Two IDs may only be compared with Equal.
type ID struct {
	h uint16
}

// None is the default value ⊥ held by every register initially. It is not
// the identity of any process.
var None ID

// Equal reports whether a and b are the same identity (or both None). It is
// the only comparison the symmetric model permits.
func (a ID) Equal(b ID) bool { return a.h == b.h }

// IsNone reports whether a is the default value ⊥.
func (a ID) IsNone() bool { return a.h == 0 }

// String renders the identity for diagnostics and traces only. The label
// leaks the internal handle by necessity; protocol code must never inspect
// it. None renders as "⊥".
func (a ID) String() string {
	if a.h == 0 {
		return "⊥"
	}
	return fmt.Sprintf("P%d", a.h)
}

// Handle returns the internal 16-bit representation of a. Substrate use
// only (register packing, fingerprints, traces); never protocol logic.
func Handle(a ID) uint16 { return a.h }

// FromHandle reconstructs an ID from its internal representation. Substrate
// use only. FromHandle(0) is None.
func FromHandle(h uint16) ID { return ID{h: h} }

// Generator issues unique identities. It is safe for concurrent use. The
// zero value is a valid generator issuing handles in sequential order.
type Generator struct {
	mu     sync.Mutex
	issued int
	order  []uint16 // nil means sequential 1,2,3,...
}

// NewGenerator returns a generator that issues identities in an arbitrary
// (sequential) internal order.
func NewGenerator() *Generator { return &Generator{} }

// NewShuffledGenerator returns a generator that issues the same set of
// identities as NewGenerator but in a seeded pseudo-random order. Running
// test suites under shuffled generators catches any accidental dependence
// on identity creation order, which the symmetric model forbids.
func NewShuffledGenerator(seed uint64) *Generator {
	r := xrand.New(seed)
	order := make([]uint16, MaxIDs)
	for i := range order {
		order[i] = uint16(i + 1)
	}
	r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return &Generator{order: order}
}

// New issues a fresh identity, distinct from every identity issued so far
// by this generator. It returns an error once MaxIDs identities have been
// issued.
func (g *Generator) New() (ID, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.issued >= MaxIDs {
		return None, fmt.Errorf("id: generator exhausted after %d identities", MaxIDs)
	}
	g.issued++
	if g.order != nil {
		return ID{h: g.order[g.issued-1]}, nil
	}
	return Sequential(g.issued - 1)
}

// Sequential returns the identity a zero Generator issues (k+1)-th, k
// counted from 0, or an error for k ≥ MaxIDs. It is for an owner that
// already counts what it issues under a mutex of its own (the root
// package's Lock), and so needs no Generator beside it.
func Sequential(k int) (ID, error) {
	if k < 0 || k >= MaxIDs {
		return None, fmt.Errorf("id: generator exhausted after %d identities", MaxIDs)
	}
	return ID{h: uint16(k + 1)}, nil
}

// MustNew is New for tests and examples where exhaustion is impossible; it
// panics on error.
func (g *Generator) MustNew() ID {
	v, err := g.New()
	if err != nil {
		panic(err)
	}
	return v
}

// NewN issues n fresh identities.
func (g *Generator) NewN(n int) ([]ID, error) {
	out := make([]ID, 0, n)
	for i := 0; i < n; i++ {
		v, err := g.New()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// Relabeling is a bijection on identities, used by the symmetry
// (equivariance) tests: a symmetric algorithm's behavior must be invariant
// under any relabeling of the process identities.
type Relabeling struct {
	fwd map[uint16]uint16
}

// NewRelabeling builds a bijection mapping each identity in from to the
// corresponding identity in to. None always maps to None. It returns an
// error if the slices have different lengths or contain duplicates or None.
func NewRelabeling(from, to []ID) (*Relabeling, error) {
	if len(from) != len(to) {
		return nil, fmt.Errorf("id: relabeling length mismatch: %d vs %d", len(from), len(to))
	}
	fwd := make(map[uint16]uint16, len(from))
	seenTo := make(map[uint16]bool, len(to))
	for i := range from {
		if from[i].IsNone() || to[i].IsNone() {
			return nil, fmt.Errorf("id: relabeling must not involve None")
		}
		if _, dup := fwd[from[i].h]; dup {
			return nil, fmt.Errorf("id: duplicate source identity %v", from[i])
		}
		if seenTo[to[i].h] {
			return nil, fmt.Errorf("id: duplicate target identity %v", to[i])
		}
		fwd[from[i].h] = to[i].h
		seenTo[to[i].h] = true
	}
	return &Relabeling{fwd: fwd}, nil
}

// Apply maps a through the relabeling. Identities outside the bijection's
// domain (and None) map to themselves.
func (r *Relabeling) Apply(a ID) ID {
	if h, ok := r.fwd[a.h]; ok {
		return ID{h: h}
	}
	return a
}
