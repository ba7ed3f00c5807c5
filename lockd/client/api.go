package client

// The unified front door: one Dial(Options) constructor behind which
// every transport shape — newline-JSON one-socket-per-session, binary
// multiplexed streams, and multi-address cluster routing — presents the
// same two interfaces. Callers hold a Client and open Sessions; the
// options decide what runs underneath.

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"anonmutex/lockd/wire"
)

// ErrUnavailable marks an operation that failed because the transport
// did — the connection broke, the dial was refused, the server went
// away mid-exchange. It says nothing about the lock: the op may or may
// not have executed. The routed client retries these against other
// cluster members; single-node callers test with errors.Is to separate
// a dead server from a protocol-level rejection.
var ErrUnavailable = errors.New("client: server unavailable")

// RedirectError is a clustered server's wrong-owner rejection: the key
// is owned by another node, whose lock-service address is Owner. Epoch
// is the membership epoch the redirect was computed under, so a cache
// can discard stale redirects after the view moves on. The routed
// client consumes redirects itself; they surface only when redirect
// hops are exhausted or a non-routing Conn is used against a cluster.
type RedirectError struct {
	Name  string
	Owner string
	Epoch uint64
}

func (e *RedirectError) Error() string {
	return fmt.Sprintf("client: wrong owner for %q: try %s (epoch %d)", e.Name, e.Owner, e.Epoch)
}

// Session is one logical lock-holding session: the capability surface
// the load generator, the chaos harness, and the experiments all drive.
// Every constructor shape — JSON session, multiplexed binary stream,
// routed cluster session — returns one. A Session belongs to one
// goroutine of workload, but its methods are individually safe for
// concurrent use (pipelined on the shared transport).
type Session interface {
	// Acquire blocks until the session holds name (ErrAborted if the
	// attempt was cancelled or capped server-side).
	Acquire(name string) error
	// AcquireFor bounds the attempt: expiry withdraws cleanly and
	// reports (false, nil).
	AcquireFor(name string, d time.Duration) (bool, error)
	// TryAcquire reports whether the lock was free and is now held.
	TryAcquire(name string) (bool, error)
	// Release gives a held name back.
	Release(name string) error
	// Holds asks the server whether this session holds name.
	Holds(name string) (bool, error)
	// Crash acquires name on a throwaway session that then goes silent
	// holding it — the deliberate orphan lease recovery is tested with.
	Crash(name string) (bool, error)
	// Heartbeat renews every lease the session holds once; ErrFenced
	// (wrapped) if any grant had already expired.
	Heartbeat() error
	// AutoHeartbeat starts a background renewal ticker (idempotent).
	AutoHeartbeat(every time.Duration)
	// Ping probes liveness.
	Ping() error
	// Token reports the fencing token of the session's most recent
	// grant on name (0 before any, or on a lease-free server).
	Token(name string) uint64
	// Close ends the session; the server releases what it still holds.
	Close() error
}

// Client is a handle on a lock service — one server or a whole cluster.
// Open hands out independent Sessions; Close tears down everything the
// client owns (sessions, pooled sockets, crash corpses).
type Client interface {
	Open() (Session, error)
	// Stats sums counter snapshots across every reachable address.
	Stats() (wire.Stats, error)
	Close() error
}

// Protocol names for Options.Proto.
const (
	// ProtoJSON is the newline-JSON protocol: one socket per session.
	ProtoJSON = "json"
	// ProtoBinary is the length-prefixed framed protocol: sessions are
	// streams multiplexed ConnsPerSocket to a socket.
	ProtoBinary = "binary"
)

// Options configures Dial. The zero value of every field is usable;
// only Addrs is required.
type Options struct {
	// Addrs lists the lock-service addresses. One address is a
	// single-node client; several make a routed cluster client that
	// follows wrong_owner redirects, caches key ownership per
	// membership epoch, and retries unavailable nodes against the rest.
	Addrs []string

	// Proto selects the wire protocol: ProtoJSON (default) or
	// ProtoBinary.
	Proto string

	// ConnsPerSocket packs this many logical sessions onto each binary
	// socket (min 1). Setting it implies ProtoBinary.
	ConnsPerSocket int

	// Heartbeat, when positive, starts every opened session's
	// auto-heartbeat ticker at this interval.
	Heartbeat time.Duration

	// CrashTimeout bounds each Crash op's acquire (default 10s).
	CrashTimeout time.Duration
}

// The routed client's retry policy: constants, because no caller has
// needed a second value of any of them.
const (
	// maxRedirects bounds how many wrong_owner redirects one operation
	// follows before the redirect surfaces as its error.
	maxRedirects = 3
	// retryBackoff is the base delay between retries after an unavailable
	// node. Each retry doubles the delay, jittered uniformly over
	// [d/2, d], up to retryBackoffMax — so a fleet of clients hammering a
	// restarting server spreads out instead of retrying in lockstep.
	retryBackoff    = 10 * time.Millisecond
	retryBackoffMax = time.Second
)

// withDefaults validates and fills in the option defaults.
func (o Options) withDefaults() (Options, error) {
	if len(o.Addrs) == 0 {
		return o, errors.New("client: Dial needs at least one address")
	}
	for _, a := range o.Addrs {
		if strings.TrimSpace(a) == "" {
			return o, errors.New("client: Dial got an empty address")
		}
	}
	if o.ConnsPerSocket < 0 {
		return o, fmt.Errorf("client: negative ConnsPerSocket %d", o.ConnsPerSocket)
	}
	switch o.Proto {
	case "":
		if o.ConnsPerSocket > 0 {
			o.Proto = ProtoBinary
		} else {
			o.Proto = ProtoJSON
		}
	case ProtoJSON:
		if o.ConnsPerSocket > 0 {
			return o, errors.New("client: ConnsPerSocket multiplexes the binary protocol; it cannot be combined with Proto json")
		}
	case ProtoBinary:
	default:
		return o, fmt.Errorf("client: unknown Proto %q (want %s or %s)", o.Proto, ProtoJSON, ProtoBinary)
	}
	if o.Proto == ProtoBinary && o.ConnsPerSocket == 0 {
		o.ConnsPerSocket = 1
	}
	if o.CrashTimeout <= 0 {
		o.CrashTimeout = 10 * time.Second
	}
	return o, nil
}

// Dial opens a client on a lock service. It does not connect eagerly:
// sockets are dialed as sessions first need them, so a cluster client
// can be constructed while some members are still down.
func Dial(opts Options) (Client, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	return newPoolClient(opts), nil
}
