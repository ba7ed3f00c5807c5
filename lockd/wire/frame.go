package wire

// The binary wire format: length-prefixed frames carrying a stream id
// and a batch of compactly encoded ops, so many logical client sessions
// share one TCP connection and pipelined ops coalesce into single
// writes. A connection whose first byte is MagicByte speaks frames; any
// other first byte (in practice `{`) is a newline-JSON session (json.go).
//
// Preamble, once, client to server:
//
//	0xA9 'L' 'K' hello
//
// hello is a byte of connection-scoped flags; HelloForwarded is the only
// one defined. A server answers any other preamble — an undefined hello
// bit, or a retired magic such as "LK1" — with one error response on
// stream 0 and hangs up: peers agree on the format by preamble, exactly
// one format per connection, never by per-op tolerance.
//
// Frame layout (all integers little-endian or unsigned/zigzag varints):
//
//	+----------------+----------------+------------------------------+
//	| length uint32  | stream uint32  | ops ... (until length spent) |
//	+----------------+----------------+------------------------------+
//
// length counts the payload after the length field itself (stream id
// plus ops) and is bounded by the connection's frame limit; a longer
// frame is a protocol error answered once on stream 0 before the
// connection closes, mirroring the JSON path's line limit. Stream 0 is
// reserved for connection-level errors; clients allocate ids from 1.
//
// Request op encoding (uniform for every op):
//
//	opcode byte | name len uvarint | name bytes | timeout_ms varint
//
// Response encoding:
//
//	flags uvarint | [err len uvarint | err bytes]
//	      | [token uvarint | ttl varint]
//	      | [owner len uvarint | owner bytes | epoch uvarint]  (redirect)
//	      | [owner len uvarint | owner bytes | epoch uvarint]  (owner hint)
//	      | [stats fields]
//
// with the opcode and flag tables in wire.go. Unknown opcodes and
// unknown flag bits are protocol errors.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// MagicByte is the first byte of the binary preamble. It can never begin
// a JSON request line, which is what makes the choice of format by first
// byte unambiguous.
const MagicByte = 0xA9

// PreambleLen is the length of the binary preamble.
const PreambleLen = 4

// HelloForwarded, in the preamble's hello byte, marks an inter-node
// connection: every op arriving over it was already forwarded once by a
// proxy-mode peer, so the server never forwards it again — a key it does
// not own is answered wrong_owner, which the first proxy relays to the
// client as a plain redirect. Forwarding is therefore structurally
// capped at one hop, whatever the nodes' membership views disagree
// about.
const HelloForwarded = 1 << 0

// Preamble returns the bytes a client writes immediately after
// connecting to speak the binary protocol, with the given hello flags.
func Preamble(hello byte) [PreambleLen]byte {
	return [PreambleLen]byte{MagicByte, 'L', 'K', hello}
}

// ParsePreamble validates a received preamble and returns its hello
// flags. An undefined hello bit is an error, so a peer that wants
// something this side does not implement is refused rather than
// half-understood.
func ParsePreamble(p [PreambleLen]byte) (hello byte, err error) {
	hello = p[3]
	if p[0] != MagicByte || p[1] != 'L' || p[2] != 'K' || hello&^HelloForwarded != 0 {
		return 0, fmt.Errorf("lockd: bad protocol magic %x", p[:])
	}
	return hello, nil
}

// DefaultMaxFrameBytes bounds one binary frame's payload when the caller
// passes no limit of its own.
const DefaultMaxFrameBytes = 1 << 20

// FrameHeaderLen is the bytes before a frame's ops: the length prefix
// plus the stream id.
const FrameHeaderLen = 8

// ErrFrameTooBig ends a session whose peer sent an oversized frame; like
// the JSON path's line limit, the peer hears why before the hangup.
var ErrFrameTooBig = errors.New("frame exceeds the connection's frame limit")

// ErrShortFrame is the other malformed length: a frame too short to even
// hold its own stream id.
var ErrShortFrame = errors.New("frame length shorter than its stream id")

// BeginFrame appends a frame header (length placeholder plus stream id)
// for stream to dst and returns the extended slice. The caller appends
// encoded ops, then patches the length with EndFrame, passing the
// offset that was len(dst) before this call.
func BeginFrame(dst []byte, stream uint32) []byte {
	dst = append(dst, 0, 0, 0, 0)
	return binary.LittleEndian.AppendUint32(dst, stream)
}

// EndFrame patches the length prefix of the frame begun at offset start
// and returns dst. The frame must fit the wire format's uint32 length.
func EndFrame(dst []byte, start int) []byte {
	n := len(dst) - start - 4 // payload: stream id + ops
	binary.LittleEndian.PutUint32(dst[start:], uint32(n))
	return dst
}

// AppendRequestBin appends req's binary op encoding to dst. It fails on
// an op the binary protocol has no opcode for; encoding a known op
// allocates only if dst must grow.
func AppendRequestBin(dst []byte, req *Request) ([]byte, error) {
	opc := Opcode(req.Op)
	if opc == 0 {
		return dst, fmt.Errorf("lockd: op %q has no binary opcode", req.Op)
	}
	dst = append(dst, opc)
	dst = binary.AppendUvarint(dst, uint64(len(req.Name)))
	dst = append(dst, req.Name...)
	dst = binary.AppendVarint(dst, req.TimeoutMS)
	return dst, nil
}

// DecodeRequestBin decodes one binary op from the front of data into
// req, overwriting every field, and returns the remainder of data (the
// next op of the frame). Arbitrary input never panics and never
// allocates beyond the name string: lengths are validated against the
// bytes actually present before any slice is taken. names, when not nil,
// interns the name, so a connection's recurring names allocate once.
func DecodeRequestBin(data []byte, req *Request, names *NameTable) (rest []byte, err error) {
	*req = Request{}
	if len(data) == 0 {
		return nil, errors.New("lockd: empty binary op")
	}
	op := OpOfCode(data[0])
	if op == "" {
		return nil, fmt.Errorf("lockd: unknown binary opcode 0x%02x", data[0])
	}
	name, data, err := binBytes(data[1:])
	if err != nil {
		return nil, fmt.Errorf("lockd: binary op %s name: %w", op, err)
	}
	timeout, n := binary.Varint(data)
	if n <= 0 {
		return nil, fmt.Errorf("lockd: binary op %s: bad timeout varint", op)
	}
	req.Op = op
	switch {
	case len(name) == 0:
		// Leave the zero value: "" round-trips without an allocation.
	case names != nil:
		req.Name = names.intern(name)
	default:
		req.Name = string(name)
	}
	req.TimeoutMS = timeout
	return data[n:], nil
}

// AppendResponseBin appends resp's binary encoding to dst and returns
// the extended slice. It allocates only if dst must grow.
func AppendResponseBin(dst []byte, resp *Response) []byte {
	var flags uint64
	if resp.OK {
		flags |= FlagOK
	}
	if resp.Acquired {
		flags |= FlagAcquired
	}
	if resp.Aborted {
		flags |= FlagAborted
	}
	if resp.Holds {
		flags |= FlagHolds
	}
	if resp.Err != "" {
		flags |= FlagErr
	}
	if resp.Stats != nil {
		flags |= FlagStats
	}
	hasLease := resp.Token != 0 || resp.TTLMS != 0
	if hasLease {
		flags |= FlagLease
	}
	if resp.Fenced {
		flags |= FlagFenced
	}
	if resp.WrongOwner {
		flags |= FlagRedirect
	}
	if resp.OwnerHint {
		flags |= FlagOwnerHint
	}
	dst = binary.AppendUvarint(dst, flags)
	if resp.Err != "" {
		dst = binary.AppendUvarint(dst, uint64(len(resp.Err)))
		dst = append(dst, resp.Err...)
	}
	if hasLease {
		dst = binary.AppendUvarint(dst, resp.Token)
		dst = binary.AppendVarint(dst, resp.TTLMS)
	}
	if resp.WrongOwner {
		dst = binary.AppendUvarint(dst, uint64(len(resp.Owner)))
		dst = append(dst, resp.Owner...)
		dst = binary.AppendUvarint(dst, resp.Epoch)
	}
	if resp.OwnerHint {
		dst = binary.AppendUvarint(dst, uint64(len(resp.Owner)))
		dst = append(dst, resp.Owner...)
		dst = binary.AppendUvarint(dst, resp.Epoch)
	}
	if s := resp.Stats; s != nil {
		dst = binary.AppendUvarint(dst, s.Acquires)
		dst = binary.AppendUvarint(dst, s.Releases)
		dst = binary.AppendUvarint(dst, s.Waits)
		dst = binary.AppendUvarint(dst, s.TryAcquires)
		dst = binary.AppendUvarint(dst, s.TryFailures)
		dst = binary.AppendUvarint(dst, s.LockCreates)
		dst = binary.AppendUvarint(dst, s.Evictions)
		dst = binary.AppendVarint(dst, int64(s.ResidentLocks))
		dst = binary.AppendUvarint(dst, s.Aborts)
		dst = binary.AppendUvarint(dst, s.LeaseTimeouts)
		dst = binary.AppendUvarint(dst, s.Expired)
		dst = binary.AppendUvarint(dst, s.Revoked)
		dst = binary.AppendUvarint(dst, s.FencedRejects)
		dst = binary.AppendUvarint(dst, s.Violations)
		dst = binary.AppendVarint(dst, int64(s.Sessions))
		dst = binary.AppendVarint(dst, int64(s.Streams))
	}
	return dst
}

// DecodeResponseBin decodes one binary response from the front of data
// into resp, overwriting every field, and returns the remainder (the
// next response of the frame). Arbitrary input never panics; only a
// stats payload, an owner address, or an error string allocates.
func DecodeResponseBin(data []byte, resp *Response) (rest []byte, err error) {
	*resp = Response{}
	if len(data) == 0 {
		return nil, errors.New("lockd: empty binary response")
	}
	flags, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, errors.New("lockd: binary response: bad flags varint")
	}
	data = data[n:]
	if flags&^knownFlags != 0 {
		return nil, fmt.Errorf("lockd: unknown response flags 0x%02x", flags)
	}
	resp.OK = flags&FlagOK != 0
	resp.Acquired = flags&FlagAcquired != 0
	resp.Aborted = flags&FlagAborted != 0
	resp.Holds = flags&FlagHolds != 0
	resp.Fenced = flags&FlagFenced != 0
	if flags&FlagErr != 0 {
		var msg []byte
		if msg, data, err = binBytes(data); err != nil {
			return nil, fmt.Errorf("lockd: binary response error string: %w", err)
		}
		if len(msg) == 0 {
			return nil, errors.New("lockd: binary response flags an empty error")
		}
		resp.Err = string(msg)
	}
	if flags&FlagLease != 0 {
		tok, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errors.New("lockd: binary response: bad token varint")
		}
		data = data[n:]
		ttl, n := binary.Varint(data)
		if n <= 0 {
			return nil, errors.New("lockd: binary response: bad ttl varint")
		}
		data = data[n:]
		resp.Token = tok
		resp.TTLMS = ttl
	}
	if flags&FlagRedirect != 0 {
		var owner []byte
		if owner, data, err = binBytes(data); err != nil {
			return nil, fmt.Errorf("lockd: binary response owner address: %w", err)
		}
		epoch, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errors.New("lockd: binary response: bad epoch varint")
		}
		data = data[n:]
		resp.WrongOwner = true
		resp.Owner = string(owner)
		resp.Epoch = epoch
	}
	if flags&FlagOwnerHint != 0 {
		var owner []byte
		if owner, data, err = binBytes(data); err != nil {
			return nil, fmt.Errorf("lockd: binary response hint owner address: %w", err)
		}
		epoch, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errors.New("lockd: binary response: bad hint epoch varint")
		}
		data = data[n:]
		resp.OwnerHint = true
		resp.Owner = string(owner)
		resp.Epoch = epoch
	}
	if flags&FlagStats != 0 {
		s := &Stats{}
		fields := []struct {
			u *uint64
			i *int
		}{
			{u: &s.Acquires}, {u: &s.Releases}, {u: &s.Waits},
			{u: &s.TryAcquires}, {u: &s.TryFailures}, {u: &s.LockCreates},
			{u: &s.Evictions}, {i: &s.ResidentLocks}, {u: &s.Aborts},
			{u: &s.LeaseTimeouts}, {u: &s.Expired}, {u: &s.Revoked},
			{u: &s.FencedRejects}, {u: &s.Violations}, {i: &s.Sessions},
			{i: &s.Streams},
		}
		for _, f := range fields {
			if f.u != nil {
				v, n := binary.Uvarint(data)
				if n <= 0 {
					return nil, errors.New("lockd: binary stats: bad varint")
				}
				*f.u = v
				data = data[n:]
			} else {
				v, n := binary.Varint(data)
				if n <= 0 {
					return nil, errors.New("lockd: binary stats: bad varint")
				}
				*f.i = int(v)
				data = data[n:]
			}
		}
		resp.Stats = s
	}
	return data, nil
}

// binBytes decodes a uvarint-length-prefixed byte string from the front
// of data, validating the length against the bytes actually present so
// a hostile length can neither panic nor force an allocation.
func binBytes(data []byte) (b, rest []byte, err error) {
	n, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, nil, errors.New("bad length varint")
	}
	if n > uint64(len(data)-k) {
		return nil, nil, fmt.Errorf("length %d exceeds the %d bytes present", n, len(data)-k)
	}
	end := k + int(n)
	return data[k:end], data[end:], nil
}

// DecodeFrame parses one whole frame from the front of data: the length
// prefix (validated against max before anything is sliced), the stream
// id, and the ops payload. rest is the byte stream after the frame. It
// is the in-memory mirror of ReadFrame, and the surface the fuzz
// harness drives: arbitrary bytes must error cleanly, never panic, and
// never claim more bytes than are present.
func DecodeFrame(data []byte, max int) (stream uint32, ops, rest []byte, err error) {
	if max <= 0 {
		max = DefaultMaxFrameBytes
	}
	if len(data) < FrameHeaderLen {
		return 0, nil, nil, fmt.Errorf("lockd: truncated frame header: %d bytes", len(data))
	}
	n := binary.LittleEndian.Uint32(data)
	if n < 4 {
		return 0, nil, nil, fmt.Errorf("lockd: %w: %d", ErrShortFrame, n)
	}
	if n > uint32(max) {
		return 0, nil, nil, fmt.Errorf("lockd: %w: %d > %d bytes", ErrFrameTooBig, n, max)
	}
	if uint32(len(data)-4) < n {
		return 0, nil, nil, fmt.Errorf("lockd: truncated frame: length %d, %d bytes present", n, len(data)-4)
	}
	stream = binary.LittleEndian.Uint32(data[4:])
	return stream, data[FrameHeaderLen : 4+n], data[4+n:], nil
}

// ReadFrame reads one frame from br into buf (reused and grown as
// needed; pass the returned newBuf back in), returning the stream id
// and the ops payload, which aliases newBuf and is valid until the next
// call. A frame whose length prefix exceeds max fails with the
// frame-limit error before any payload is read, so a hostile length
// cannot balloon memory.
func ReadFrame(br *bufio.Reader, buf []byte, max int) (stream uint32, ops, newBuf []byte, err error) {
	if max <= 0 {
		max = DefaultMaxFrameBytes
	}
	// Peek instead of ReadFull: the header is parsed in place from the
	// bufio buffer, so the steady-state read path performs zero heap
	// allocations (a local header array would escape through the
	// io.Reader interface).
	hdr, err := br.Peek(FrameHeaderLen)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, buf, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n < 4 {
		return 0, nil, buf, fmt.Errorf("lockd: %w: %d", ErrShortFrame, n)
	}
	if n > uint32(max) {
		return 0, nil, buf, fmt.Errorf("lockd: %w: %d > %d bytes", ErrFrameTooBig, n, max)
	}
	stream = binary.LittleEndian.Uint32(hdr[4:])
	br.Discard(FrameHeaderLen)
	body := int(n) - 4
	if cap(buf) < body {
		buf = make([]byte, body)
	}
	buf = buf[:body]
	if _, err := io.ReadFull(br, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, buf, err
	}
	return stream, buf, buf, nil
}

// maxInternedNameBytes bounds a connection's interning table: when the
// interned names' total length would pass it, the table is reset and
// re-learns the connection's current working set. Hot names stay free;
// a pathological stream of unique names costs one allocation per
// request (exactly the behavior without interning) instead of unbounded
// server memory.
const maxInternedNameBytes = 1 << 20

// NameTable interns lock names per connection with a byte-bounded
// budget. It is not safe for concurrent use: it belongs to the one
// goroutine that decodes a connection's requests.
type NameTable struct {
	m     map[string]string
	bytes int
}

// NewNameTable returns an empty table.
func NewNameTable() *NameTable {
	return &NameTable{m: make(map[string]string)}
}

// intern returns the canonical string for raw, allocating only the
// first time a name (since the last reset) is seen.
func (t *NameTable) intern(raw []byte) string {
	if s, ok := t.m[string(raw)]; ok { // compiler avoids the []byte→string alloc
		return s
	}
	s := string(raw)
	if t.bytes+len(s) > maxInternedNameBytes {
		clear(t.m)
		t.bytes = 0
	}
	t.m[s] = s
	t.bytes += len(s)
	return s
}
