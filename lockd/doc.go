// Package lockd implements a small network lock service over the
// internal/lockmgr sharded named-lock manager. Two wire formats carry
// the same protocol: a length-prefixed binary framing that multiplexes
// many logical streams over one connection and batches ops per frame —
// what the Go client and every measured workload speak; a client opts in
// by leading with the wire.Preamble — and newline-delimited JSON (one
// logical session per connection), which any other first byte selects
// and which exists so that nc, a script, or a debugger can talk to a
// node. Both formats, and the Request/Response/Stats shapes they carry,
// are defined in lockd/wire and nowhere else; this package only moves
// their bytes, and moves them through one connection loop
// (transport.go) of which each format is a framing: the connection's
// reader executes every op that cannot block, and a logical session owns
// a goroutine only while it is owed the answer to one that can. Either
// way, every grant a logical session holds is released automatically
// when the session ends.
//
// The protocol is deliberately minimal. Each request is a wire.Request;
// each response is a wire.Response, and responses are written in request
// order (per stream, on the binary transport). Operations:
//
//	acquire  block until the session holds the named lock; with
//	         timeout_ms set, give up after that many milliseconds —
//	         the waiter withdraws from the register competition and
//	         the response carries acquired=false, aborted=true
//	cancel   abort the session's in-flight acquire (optionally only if
//	         it is for the given name); if no acquire is in flight the
//	         cancellation is remembered and applied to the session's
//	         next acquire, closing the pipelining race between an
//	         acquire line and its chasing cancel line
//	try      acquire only if immediately available (Acquired reports it)
//	release  give a held lock back
//	holds    report whether this session holds the named lock — the
//	         owner check load generators issue inside the critical
//	         section; with leases enabled the response carries the
//	         grant's fencing token and remaining TTL
//	heartbeat
//	         renew the session's leases: with a name, just that grant;
//	         without, every grant the session holds. On a server with
//	         leases enabled (-lease-ttl), a grant whose holder stops
//	         heartbeating is forcibly revoked after one TTL and later
//	         ops on it are rejected with fenced=true — the stale
//	         holder's fencing token no longer matches. With leases
//	         disabled heartbeat is an acknowledged no-op, so clients
//	         can always send it
//	stats    manager-wide counters, including the mutual-exclusion
//	         violation cross-check and the abort/timeout tallies
//	ping     liveness probe
//
// On a clustered server (see internal/cluster), each key is owned by
// exactly one node under rendezvous hashing of the membership view.
// Key ops sent to the wrong node are refused with wrong_owner=true
// plus the owning node's address and the membership epoch, so a
// routing client can follow the redirect and invalidate stale cache
// entries. Single-node servers never emit the field, and a JSON reader
// that skips fields it does not know sees a plain error: a clean
// failure, never a silent success on the wrong node.
//
// A connection that drops mid-acquire is reaped: the server cancels the
// in-flight acquisition, the waiter leaves the lease queue or withdraws
// from the registers, and every grant the session held is released.
//
// Sessions are non-reentrant: acquiring a name the session already holds
// is an error, as is releasing one it does not hold. See lockd/client for
// the Go client (which pipelines requests, so Cancel can chase a blocked
// Acquire on the same session).
package lockd
