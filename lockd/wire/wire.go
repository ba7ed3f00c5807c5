// Package wire is the lockd protocol's data format, whole: the operation
// names and the Request/Response/Stats shapes (this file), the binary
// framed encoding with its preamble, opcode and flag tables (frame.go),
// and the newline-JSON encoding (json.go). Nothing outside this package
// knows how a message is laid out in bytes; the server (lockd) and the
// client (lockd/client) both import it and neither imports the other.
//
// The package is pure data and codecs: no sockets, no goroutines, no
// dependencies beyond the standard library.
package wire

import "fmt"

// Operation names of the wire protocol.
const (
	OpAcquire    = "acquire"
	OpTryAcquire = "try"
	OpRelease    = "release"
	OpCancel     = "cancel"
	OpHolds      = "holds"
	OpHeartbeat  = "heartbeat"
	OpStats      = "stats"
	OpPing       = "ping"

	// OpEndStream retires one logical stream of a multiplexed binary
	// connection: the server releases every grant the stream holds,
	// acks, and forgets the stream. It exists only on the binary
	// transport; the JSON protocol's equivalent is closing the
	// connection.
	OpEndStream = "end_stream"

	// OpReleaseNoAck is a fire-and-forget release: identical to
	// OpRelease server-side, but the server sends NO response — the
	// sender must not register a response slot for it. Proxy-mode nodes
	// use it to retire forwarded grants without costing the inter-node
	// stream a round trip; it is valid (if rarely useful) from ordinary
	// clients too.
	OpReleaseNoAck = "release_noack"
)

// Request is one client request line.
type Request struct {
	// Op is one of the Op* constants.
	Op string `json:"op"`
	// Name is the lock name (required for acquire, try, release, holds;
	// optional for cancel, which then aborts any in-flight acquire).
	Name string `json:"name,omitempty"`
	// TimeoutMS bounds an acquire: after this many milliseconds the
	// waiter gives up cleanly and the response reports aborted. 0 means
	// wait forever (subject to the server's -max-wait cap, if any).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Response is one server response line.
type Response struct {
	// OK reports whether the request succeeded; on failure Err explains.
	// An aborted acquire is a success (OK with Aborted set): the protocol
	// worked exactly as asked.
	OK  bool   `json:"ok"`
	Err string `json:"err,omitempty"`
	// Acquired answers acquire and try: whether the lock is now held by
	// the session.
	Acquired bool `json:"acquired,omitempty"`
	// Aborted answers acquire: the attempt was abandoned (timeout, cancel
	// op, or server cap) after withdrawing cleanly; the lock is not held.
	Aborted bool `json:"aborted,omitempty"`
	// Holds answers holds.
	Holds bool `json:"holds,omitempty"`
	// Token is the grant's fencing token, stamped on every acquire and
	// echoed by holds when the server runs leases. Tokens are strictly
	// increasing per key, so a token smaller than the key's latest is
	// provably stale. 0 when leases are disabled.
	Token uint64 `json:"token,omitempty"`
	// TTLMS is the grant's remaining lease TTL in milliseconds (holds
	// and heartbeat; rounded up, so a live lease never reads 0).
	TTLMS int64 `json:"ttl_ms,omitempty"`
	// Fenced marks a request rejected (or, on heartbeat, partially
	// ignored) because the grant's lease expired or was revoked: the
	// session's fencing token is stale and the lock may already be held
	// by a successor.
	Fenced bool `json:"fenced,omitempty"`
	// WrongOwner marks a request refused because, in the cluster's
	// current membership view, this node does not own the key: Owner is
	// the lock-service address of the node that does, and Epoch is the
	// membership epoch the answer was computed under, so a routing
	// client can invalidate everything it cached under older epochs.
	// Single-node servers never set it.
	WrongOwner bool `json:"wrong_owner,omitempty"`
	// OwnerHint marks a successful op that a proxy-mode node forwarded
	// to the key's owner on the client's behalf: Owner/Epoch name that
	// owner, so a routing client can send its next op for the key
	// directly — the proxy path is a cold-start accelerator, not a
	// steady-state tax. Unlike WrongOwner it rides a success (OK=true);
	// JSON readers that skip unknown fields lose only the routing hint,
	// never the grant.
	OwnerHint bool `json:"owner_hint,omitempty"`
	// Owner is the owning node's lock-service address (with WrongOwner
	// or OwnerHint).
	Owner string `json:"owner,omitempty"`
	// Epoch is the membership epoch of the redirect or hint (with
	// WrongOwner or OwnerHint).
	Epoch uint64 `json:"epoch,omitempty"`
	// Stats answers stats.
	Stats *Stats `json:"stats,omitempty"`
}

// Stats is the manager-wide counter snapshot served by the stats op.
type Stats struct {
	Acquires      uint64 `json:"acquires"`
	Releases      uint64 `json:"releases"`
	Waits         uint64 `json:"waits"`
	TryAcquires   uint64 `json:"try_acquires"`
	TryFailures   uint64 `json:"try_failures"`
	LockCreates   uint64 `json:"lock_creates"`
	Evictions     uint64 `json:"evictions"`
	ResidentLocks int    `json:"resident_locks"`
	// Aborts counts acquirers that withdrew from the register competition
	// (deadline, cancel, or connection drop); LeaseTimeouts counts those
	// whose context ended while still queued for a process handle.
	Aborts        uint64 `json:"aborts"`
	LeaseTimeouts uint64 `json:"lease_timeouts"`
	// Expired counts grants forcibly revoked because their holder
	// stopped heartbeating past the lease TTL; Revoked counts explicit
	// and shutdown-time revocations; FencedRejects counts ops rejected
	// for a stale fencing token. All 0 with leases disabled.
	Expired       uint64 `json:"expired"`
	Revoked       uint64 `json:"revoked"`
	FencedRejects uint64 `json:"fenced_rejects"`
	// Violations is the manager's holder cross-check: it must stay 0.
	Violations uint64 `json:"violations"`
	// Sessions is the number of live connections.
	Sessions int `json:"sessions"`
	// Streams is the number of live logical sessions: every JSON
	// connection counts one, and every open stream of a multiplexed
	// binary connection counts one — Streams/Sessions is the socket
	// amortization the binary transport buys.
	Streams int `json:"streams,omitempty"`
}

// WrongOwnerResponse builds the redirect answer for a key this node
// does not own: a refusal (OK=false) whose WrongOwner/Owner/Epoch
// fields carry where the key lives now. Both codecs encode it from
// here — the redirect is defined once. A JSON reader that skips fields
// it does not know sees a plain refusal with the same error text: it
// fails cleanly rather than silently operating on the wrong node.
func WrongOwnerResponse(name, owner string, epoch uint64) Response {
	return Response{
		Err:        fmt.Sprintf("lockd: wrong owner for %q: try %s", name, owner),
		WrongOwner: true,
		Owner:      owner,
		Epoch:      epoch,
	}
}

// Binary opcodes, one per wire op (OpEndStream is transport-level and
// has no JSON counterpart).
const (
	binOpAcquire = 1 + iota
	binOpTry
	binOpRelease
	binOpCancel
	binOpHolds
	binOpStats
	binOpPing
	binOpEndStream
	binOpHeartbeat
	binOpReleaseNoAck
)

// Opcode maps a protocol op string to its binary opcode (0 = unknown).
func Opcode(op string) byte {
	switch op {
	case OpAcquire:
		return binOpAcquire
	case OpTryAcquire:
		return binOpTry
	case OpRelease:
		return binOpRelease
	case OpCancel:
		return binOpCancel
	case OpHolds:
		return binOpHolds
	case OpStats:
		return binOpStats
	case OpPing:
		return binOpPing
	case OpEndStream:
		return binOpEndStream
	case OpHeartbeat:
		return binOpHeartbeat
	case OpReleaseNoAck:
		return binOpReleaseNoAck
	}
	return 0
}

// OpOfCode is the inverse of Opcode ("" = unknown).
func OpOfCode(c byte) string {
	switch c {
	case binOpAcquire:
		return OpAcquire
	case binOpTry:
		return OpTryAcquire
	case binOpRelease:
		return OpRelease
	case binOpCancel:
		return OpCancel
	case binOpHolds:
		return OpHolds
	case binOpStats:
		return OpStats
	case binOpPing:
		return OpPing
	case binOpEndStream:
		return OpEndStream
	case binOpHeartbeat:
		return OpHeartbeat
	case binOpReleaseNoAck:
		return OpReleaseNoAck
	}
	return ""
}

// Binary response flag bits. The flag field is a uvarint, so every
// response without a redirect or an owner hint still costs one byte.
const (
	FlagOK        = 1 << iota // Response.OK
	FlagAcquired              // Response.Acquired
	FlagAborted               // Response.Aborted
	FlagHolds                 // Response.Holds
	FlagErr                   // an error string follows
	FlagStats                 // a stats payload follows
	FlagLease                 // a fencing token uvarint + ttl_ms varint follow
	FlagFenced                // Response.Fenced
	FlagRedirect              // an owner address + epoch uvarint follow
	FlagOwnerHint             // a proxied op's owner address + epoch uvarint follow

	// knownFlags is every defined bit; anything outside it is a protocol
	// error.
	knownFlags = FlagOwnerHint<<1 - 1
)
