package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"anonmutex/internal/xrand"
)

// Spec is the unified, JSON-describable traffic model shared by every
// load-producing layer in the repository: the loadgen client fleets, the
// scenario runner on both substrates, the experiment catalog, and
// anonload (`-workload` / `-workload-file`). One Spec composes four
// orthogonal generators, all derived deterministically from Seed:
//
//   - a session profile (Profile/BaseCS/BaseRemainder): per-session
//     critical-section and remainder lengths, in abstract work units
//     (spin units on the real substrate, scheduler ticks when the
//     simulator scales them by a scenario's cs_ticks);
//   - a key-popularity distribution (Keys): which lock name each
//     acquire targets — uniform, zipf(s), a fixed hotset, or a hotset
//     that shifts across the key space over time;
//   - an arrival process (Arrival): closed-loop (each client thinks
//     between its own cycles) or open-loop (Poisson or bursty arrivals
//     at an offered rate, decoupled from service capacity, with a
//     bounded backlog — the load model abortable-mutex evaluations
//     measure);
//   - an op mix (Ops): blocking lock, bounded trylock, deadline-bounded
//     acquire with a per-op timeout, and crash (acquire, then die
//     holding the lock), drawn by weight.
//
// The zero value of every field means "default"; Normalize fills
// defaults and validates, failing loudly on unknown names. Spec contains
// only scalars, so it is comparable and replays bit-identically: two
// consumers that build Sources from the same normalized Spec and stream
// id observe identical draw sequences (see NewSource).
type Spec struct {
	// Profile selects the session-length generator: uniform, bursty, or
	// skewed (see Profile). BaseCS and BaseRemainder set its scale in
	// work units; zero means no work of that kind.
	Profile       string `json:"profile,omitempty"`
	BaseCS        int    `json:"base_cs,omitempty"`
	BaseRemainder int    `json:"base_remainder,omitempty"`
	// Seed drives every stream derived from this spec.
	Seed uint64 `json:"seed,omitempty"`
	// ConnsPerSocket is how many logical sessions a network backend
	// multiplexes onto each physical socket (the binary transport's
	// stream fan-in). 0 means the transport default: one dedicated
	// socket per session. Backends without a network substrate ignore
	// it.
	ConnsPerSocket int `json:"conns_per_socket,omitempty"`
	// Keys is the key-popularity distribution.
	Keys KeySpec `json:"keys"`
	// Arrival is the arrival process.
	Arrival ArrivalSpec `json:"arrival"`
	// Ops is the op mix.
	Ops OpMix `json:"ops"`
}

// Key-distribution names used in KeySpec.Dist.
const (
	// KeyUniform spreads acquires evenly over the key space.
	KeyUniform = "uniform"
	// KeyZipf draws key k with probability ∝ 1/(k+1)^s.
	KeyZipf = "zipf"
	// KeyHotset sends HotFrac of the traffic to HotKeys hot keys and
	// spreads the rest uniformly over the cold keys.
	KeyHotset = "hotset"
	// KeyShiftingHotset is KeyHotset with the hot window advancing by
	// HotKeys positions every ShiftEvery picks — a moving hotspot.
	KeyShiftingHotset = "shifting-hotset"
)

// KeySpec is the key-popularity distribution of a Spec.
type KeySpec struct {
	// Dist is uniform, zipf, hotset, or shifting-hotset (default
	// uniform).
	Dist string `json:"dist,omitempty"`
	// ZipfS is the zipf exponent (default 1.1; zipf only).
	ZipfS float64 `json:"zipf_s,omitempty"`
	// HotKeys is the hot-set size (default 1) and HotFrac the fraction
	// of traffic it receives (default 0.8); hotset variants only.
	HotKeys int     `json:"hot_keys,omitempty"`
	HotFrac float64 `json:"hot_frac,omitempty"`
	// ShiftEvery is how many picks the hot window stays in place
	// (default 1000; shifting-hotset only).
	ShiftEvery int `json:"shift_every,omitempty"`
}

// Arrival-process names used in ArrivalSpec.Process.
const (
	// ArrivalClosed is the closed loop: each client completes a cycle,
	// thinks for the session's remainder length, then starts the next.
	ArrivalClosed = "closed"
	// ArrivalPoisson is open-loop Poisson: arrivals at exponentially
	// distributed intervals with mean 1/RatePerSec, independent of how
	// fast the backend serves them.
	ArrivalPoisson = "poisson"
	// ArrivalBursty is open-loop bursts: BurstSize simultaneous
	// arrivals, then a gap sized so the long-run rate is RatePerSec.
	ArrivalBursty = "bursty"
)

// ArrivalSpec is the arrival process of a Spec.
type ArrivalSpec struct {
	// Process is closed (default), poisson, or bursty.
	Process string `json:"process,omitempty"`
	// RatePerSec is the offered arrival rate across the whole client
	// fleet (open-loop modes; required there).
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// BurstSize is the arrivals per burst (default 8; bursty only).
	BurstSize int `json:"burst_size,omitempty"`
	// MaxBacklog bounds the pending-arrival queue; arrivals beyond it
	// are shed and reported, keeping in-flight work bounded (0: the
	// harness picks 4× the client count).
	MaxBacklog int `json:"max_backlog,omitempty"`
}

// OpKind is one acquire's flavor, drawn from a Spec's op mix.
type OpKind uint8

// Op kinds.
const (
	// OpLock is a blocking acquire.
	OpLock OpKind = iota + 1
	// OpTry is a bounded trylock: it never waits out a holder's
	// critical section; a miss is counted, not retried.
	OpTry
	// OpTimed is a deadline-bounded acquire with the mix's per-op
	// timeout; expiry withdraws cleanly and counts as an abort.
	OpTimed
	// OpCrash acquires the key and then dies holding it: no release, no
	// heartbeat, the session simply goes dark. It models a holder
	// crashing inside its critical section — the failure the lease
	// subsystem's TTL expiry exists to recover from. Backends without a
	// crash facility reject specs that weight it.
	OpCrash
)

// String returns the op-kind name.
func (k OpKind) String() string {
	switch k {
	case OpLock:
		return "lock"
	case OpTry:
		return "try"
	case OpTimed:
		return "timed"
	case OpCrash:
		return "crash"
	default:
		return fmt.Sprintf("opkind(%d)", uint8(k))
	}
}

// OpMix is the op mix of a Spec: relative weights for each kind. All
// zero means pure blocking locks; TimeoutMS set with all weights zero
// means pure deadline-bounded acquires.
type OpMix struct {
	Lock  float64 `json:"lock,omitempty"`
	Try   float64 `json:"try,omitempty"`
	Timed float64 `json:"timed,omitempty"`
	// Crash weights holders that die inside the critical section (see
	// OpCrash). Leaving it 0 keeps every existing spec's draw sequence
	// bit-identical.
	Crash float64 `json:"crash,omitempty"`
	// TimeoutMS is the per-op deadline for timed acquires, in
	// milliseconds (fractions allowed; required when Timed > 0).
	TimeoutMS float64 `json:"timeout_ms,omitempty"`
}

// Timeout returns the timed-op deadline as a duration.
func (m OpMix) Timeout() time.Duration {
	return time.Duration(m.TimeoutMS * float64(time.Millisecond))
}

// Open reports whether the spec's arrival process is open-loop.
func (s Spec) Open() bool {
	return s.Arrival.Process == ArrivalPoisson || s.Arrival.Process == ArrivalBursty
}

// Normalize fills defaults and validates the spec, returning the
// completed copy. Unknown profile, distribution, arrival, or op names
// fail loudly — they never fall back to uniform.
func (s Spec) Normalize() (Spec, error) {
	if s.Profile == "" {
		s.Profile = Uniform.String()
	}
	p, err := ParseProfile(s.Profile)
	if err != nil {
		return s, err
	}
	switch p {
	case Uniform, Bursty, Skewed:
		s.Profile = p.String()
	default:
		return s, fmt.Errorf("workload: profile %q names no built-in profile", s.Profile)
	}
	if s.BaseCS < 0 || s.BaseRemainder < 0 {
		return s, fmt.Errorf("workload: negative base durations")
	}
	if s.ConnsPerSocket < 0 {
		return s, fmt.Errorf("workload: negative conns_per_socket")
	}

	switch s.Keys.Dist {
	case "":
		s.Keys.Dist = KeyUniform
	case KeyUniform, KeyZipf, KeyHotset, KeyShiftingHotset:
	default:
		return s, fmt.Errorf("workload: unknown key distribution %q (want %s, %s, %s, or %s)",
			s.Keys.Dist, KeyUniform, KeyZipf, KeyHotset, KeyShiftingHotset)
	}
	if s.Keys.ZipfS == 0 {
		s.Keys.ZipfS = 1.1
	}
	if s.Keys.ZipfS <= 0 {
		return s, fmt.Errorf("workload: zipf_s must be positive, got %v", s.Keys.ZipfS)
	}
	if s.Keys.HotKeys == 0 {
		s.Keys.HotKeys = 1
	}
	if s.Keys.HotKeys < 0 {
		return s, fmt.Errorf("workload: hot_keys must be positive, got %d", s.Keys.HotKeys)
	}
	if s.Keys.HotFrac == 0 {
		s.Keys.HotFrac = 0.8
	}
	if s.Keys.HotFrac < 0 || s.Keys.HotFrac > 1 {
		return s, fmt.Errorf("workload: hot_frac must be in (0, 1], got %v", s.Keys.HotFrac)
	}
	if s.Keys.ShiftEvery == 0 {
		s.Keys.ShiftEvery = 1000
	}
	if s.Keys.ShiftEvery < 0 {
		return s, fmt.Errorf("workload: shift_every must be positive, got %d", s.Keys.ShiftEvery)
	}

	switch s.Arrival.Process {
	case "":
		s.Arrival.Process = ArrivalClosed
	case ArrivalClosed, ArrivalPoisson, ArrivalBursty:
	default:
		return s, fmt.Errorf("workload: unknown arrival process %q (want %s, %s, or %s)",
			s.Arrival.Process, ArrivalClosed, ArrivalPoisson, ArrivalBursty)
	}
	if s.Open() && s.Arrival.RatePerSec <= 0 {
		return s, fmt.Errorf("workload: open-loop arrivals (%s) need rate_per_sec > 0", s.Arrival.Process)
	}
	if s.Arrival.RatePerSec < 0 {
		return s, fmt.Errorf("workload: negative rate_per_sec")
	}
	if s.Arrival.BurstSize == 0 {
		s.Arrival.BurstSize = 8
	}
	if s.Arrival.BurstSize < 0 {
		return s, fmt.Errorf("workload: burst_size must be positive, got %d", s.Arrival.BurstSize)
	}
	if s.Arrival.MaxBacklog < 0 {
		return s, fmt.Errorf("workload: negative max_backlog")
	}

	if s.Ops.Lock < 0 || s.Ops.Try < 0 || s.Ops.Timed < 0 || s.Ops.Crash < 0 || s.Ops.TimeoutMS < 0 {
		return s, fmt.Errorf("workload: negative op-mix values")
	}
	if s.Ops.Lock+s.Ops.Try+s.Ops.Timed+s.Ops.Crash == 0 {
		if s.Ops.TimeoutMS > 0 {
			s.Ops.Timed = 1 // a bare timeout means "every acquire is bounded"
		} else {
			s.Ops.Lock = 1
		}
	}
	if s.Ops.Timed > 0 && s.Ops.TimeoutMS <= 0 {
		return s, fmt.Errorf("workload: timed ops need timeout_ms > 0")
	}
	return s, nil
}

// JSON returns the spec's canonical (indented) JSON encoding.
func (s Spec) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// ParseJSON decodes and normalizes a spec from JSON. Unknown fields are
// rejected, so typos in workload files fail loudly.
func ParseJSON(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("workload: parsing spec: %w", err)
	}
	return s.Normalize()
}

// Source draws one stream of traffic from a normalized Spec. Each
// generator (keys, ops, sessions, arrivals) has its own SplitMix64
// stream derived from (Seed, stream id), so the subsequences are
// independent: a consumer that draws only sessions observes exactly the
// session sequence a consumer interleaving key and op draws does — the
// property the cross-consumer replay tests pin.
//
// Stream ids identify the traffic source: loadgen uses the client index,
// the scenario runners use the process index. The skewed profile treats
// stream 0 as the hammering process. A Source is not safe for concurrent
// use; give each goroutine its own.
type Source struct {
	spec    Spec
	stream  uint64
	profile Profile

	keysR, opsR, sessR, arrR *xrand.Rand

	picks     int // key picks so far (drives the shifting hotset)
	burstLeft int // arrivals remaining in the current burst

	cdf     []float64 // zipf CDF, cached per key-space size
	cdfKeys int
}

// NewSource builds the generator for one stream of spec, which must be
// normalized (NewSource does not validate).
func NewSource(spec Spec, stream uint64) *Source {
	p, _ := ParseProfile(spec.Profile)
	return &Source{
		spec:    spec,
		stream:  stream,
		profile: p,
		keysR:   streamRand(spec.Seed, stream, 1),
		opsR:    streamRand(spec.Seed, stream, 2),
		sessR:   streamRand(spec.Seed, stream, 3),
		arrR:    streamRand(spec.Seed, stream, 4),
	}
}

// streamRand derives the generator for one (seed, stream, purpose)
// triple; full mixing keeps the streams independent in practice.
func streamRand(seed, stream, purpose uint64) *xrand.Rand {
	return xrand.New(xrand.Mix64(seed ^ xrand.Mix64(stream*0x9e3779b97f4a7c15+purpose)))
}

// PickKey draws the next acquire's key index in [0, nkeys).
func (s *Source) PickKey(nkeys int) int {
	if nkeys <= 1 {
		s.picks++
		return 0
	}
	k := s.spec.Keys
	var pick int
	switch k.Dist {
	case KeyZipf:
		pick = s.zipfPick(nkeys)
	case KeyHotset:
		pick = s.hotPick(nkeys, 0)
	case KeyShiftingHotset:
		hot := k.HotKeys
		if hot > nkeys {
			hot = nkeys
		}
		start := (s.picks / k.ShiftEvery * hot) % nkeys
		pick = s.hotPick(nkeys, start)
	default:
		pick = s.keysR.Intn(nkeys)
	}
	s.picks++
	return pick
}

// zipfPick samples from zipf(s) over nkeys keys via the cached CDF.
func (s *Source) zipfPick(nkeys int) int {
	if s.cdf == nil || s.cdfKeys != nkeys {
		cdf := make([]float64, nkeys)
		sum := 0.0
		for i := range cdf {
			sum += 1 / math.Pow(float64(i+1), s.spec.Keys.ZipfS)
			cdf[i] = sum
		}
		for i := range cdf {
			cdf[i] /= sum
		}
		s.cdf, s.cdfKeys = cdf, nkeys
	}
	i := sort.SearchFloat64s(s.cdf, s.keysR.Float64())
	if i >= nkeys {
		i = nkeys - 1
	}
	return i
}

// hotPick samples the hotset distribution with the hot window starting
// at start (wrapping around the key space).
func (s *Source) hotPick(nkeys, start int) int {
	hot := s.spec.Keys.HotKeys
	if hot >= nkeys {
		return s.keysR.Intn(nkeys)
	}
	if s.keysR.Float64() < s.spec.Keys.HotFrac {
		return (start + s.keysR.Intn(hot)) % nkeys
	}
	return (start + hot + s.keysR.Intn(nkeys-hot)) % nkeys
}

// NextOp draws the next acquire's kind from the op mix.
func (s *Source) NextOp() OpKind {
	m := s.spec.Ops
	total := m.Lock + m.Try + m.Timed + m.Crash
	if total <= 0 {
		return OpLock
	}
	u := s.opsR.Float64() * total
	switch {
	case u < m.Lock:
		return OpLock
	case u < m.Lock+m.Try:
		return OpTry
	case u < m.Lock+m.Try+m.Timed:
		return OpTimed
	default:
		return OpCrash
	}
}

// NextSession draws the next session's critical-section and remainder
// lengths from the profile.
func (s *Source) NextSession() Session {
	r := s.sessR
	jitter := func(base int) int {
		if base == 0 {
			return 0
		}
		// ±50% uniform jitter, at least 1.
		return base/2 + 1 + r.Intn(base)
	}
	switch s.profile {
	case Bursty:
		if r.Intn(4) == 0 { // a burst: negligible think time
			return Session{CSWork: jitter(s.spec.BaseCS), RemainderWork: 1}
		}
		return Session{CSWork: jitter(s.spec.BaseCS), RemainderWork: 10 * s.spec.BaseRemainder}
	case Skewed:
		if s.stream == 0 {
			return Session{CSWork: jitter(s.spec.BaseCS), RemainderWork: 1}
		}
		return Session{CSWork: jitter(s.spec.BaseCS), RemainderWork: 5 * s.spec.BaseRemainder}
	default:
		return Session{CSWork: s.spec.BaseCS, RemainderWork: s.spec.BaseRemainder}
	}
}

// NextArrivalDelay draws the gap to the next open-loop arrival (zero
// for closed-loop specs, and zero inside a burst).
func (s *Source) NextArrivalDelay() time.Duration {
	a := s.spec.Arrival
	switch a.Process {
	case ArrivalPoisson:
		// Inverse-CDF exponential with mean 1/rate.
		d := -math.Log1p(-s.arrR.Float64()) / a.RatePerSec
		return time.Duration(d * float64(time.Second))
	case ArrivalBursty:
		if s.burstLeft > 0 {
			s.burstLeft--
			return 0
		}
		s.burstLeft = a.BurstSize - 1
		return time.Duration(float64(a.BurstSize) / a.RatePerSec * float64(time.Second))
	default:
		return 0
	}
}

// OpEvent is one fully drawn acquire: the canonical consumption order
// every harness follows is key, then op kind, then session.
type OpEvent struct {
	Key     int
	Kind    OpKind
	Session Session
}

// TraceOps materializes one stream's first count op events over a
// key space of nkeys — the reference trace the replay-determinism tests
// compare live consumers against.
func TraceOps(spec Spec, stream uint64, nkeys, count int) ([]OpEvent, error) {
	spec, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	if nkeys < 1 || count < 0 {
		return nil, fmt.Errorf("workload: TraceOps needs nkeys >= 1 and count >= 0")
	}
	src := NewSource(spec, stream)
	out := make([]OpEvent, count)
	for i := range out {
		out[i] = OpEvent{Key: src.PickKey(nkeys), Kind: src.NextOp(), Session: src.NextSession()}
	}
	return out, nil
}

// SpecPlan materializes a session plan for n processes from the unified
// model: plan[i] is stream i's first `sessions` sessions. The scenario
// runners (real and simulated substrates) draw their per-session work
// from it, so a loadgen client and a scenario process with the same
// stream id replay identical session sequences.
func SpecPlan(spec Spec, n, sessions int) (Plan, error) {
	spec, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("workload: need n >= 1, got %d", n)
	}
	if sessions < 1 {
		return nil, fmt.Errorf("workload: need sessions >= 1, got %d", sessions)
	}
	plan := make(Plan, n)
	for i := range plan {
		src := NewSource(spec, uint64(i))
		plan[i] = make([]Session, sessions)
		for s := range plan[i] {
			plan[i][s] = src.NextSession()
		}
	}
	return plan, nil
}
