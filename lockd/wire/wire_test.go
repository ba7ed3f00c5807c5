package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// full is a Response with every field set, Stats included.
var full = Response{
	OK: true, Err: "lockd: e", Acquired: true, Aborted: true, Holds: true,
	Token: 42, TTLMS: 1500, Fenced: true, WrongOwner: true, OwnerHint: true,
	Owner: "10.0.0.7:7171", Epoch: 9,
	Stats: &Stats{
		Acquires: 1, Releases: 2, Waits: 3, TryAcquires: 4, TryFailures: 5,
		LockCreates: 6, Evictions: 7, ResidentLocks: 8, Aborts: 9,
		LeaseTimeouts: 10, Expired: 11, Revoked: 12, FencedRejects: 13,
		Violations: 14, Sessions: 15, Streams: 16,
	},
}

var fullRequest = Request{Op: OpAcquire, Name: `orders/42 "q" <é>`, TimeoutMS: 250}

// TestGoldenEncodings pins both formats to bytes recorded from the last
// commit that encoded JSON by hand and still spoke binary dialects
// v1–v4: what is on the wire did not change when the codecs moved here.
// A diff in this test is a protocol change; it needs more than a new
// golden string.
func TestGoldenEncodings(t *testing.T) {
	jsonCases := []struct {
		name string
		got  []byte
		want string
	}{
		{"request", AppendRequest(nil, &fullRequest),
			`{"op":"acquire","name":"orders/42 \"q\" \u003cé\u003e","timeout_ms":250}`},
		{"empty request", AppendRequest(nil, &Request{}), `{"op":""}`},
		{"response", AppendResponse(nil, &full),
			`{"ok":true,"err":"lockd: e","acquired":true,"aborted":true,"holds":true,"token":42,"ttl_ms":1500,` +
				`"fenced":true,"wrong_owner":true,"owner_hint":true,"owner":"10.0.0.7:7171","epoch":9,` +
				`"stats":{"acquires":1,"releases":2,"waits":3,"try_acquires":4,"try_failures":5,"lock_creates":6,` +
				`"evictions":7,"resident_locks":8,"aborts":9,"lease_timeouts":10,"expired":11,"revoked":12,` +
				`"fenced_rejects":13,"violations":14,"sessions":15,"streams":16}}`},
		{"zero stats", AppendResponse(nil, &Response{Stats: &Stats{}}),
			`{"ok":false,"stats":{"acquires":0,"releases":0,"waits":0,"try_acquires":0,"try_failures":0,` +
				`"lock_creates":0,"evictions":0,"resident_locks":0,"aborts":0,"lease_timeouts":0,"expired":0,` +
				`"revoked":0,"fenced_rejects":0,"violations":0,"sessions":0}}`},
	}
	for _, c := range jsonCases {
		if string(c.got) != c.want {
			t.Errorf("%s JSON:\n got %s\nwant %s", c.name, c.got, c.want)
		}
	}
	var req Request
	if err := DecodeRequest([]byte(jsonCases[0].want), &req); err != nil || req != fullRequest {
		t.Errorf("golden request decodes to %+v (%v)", req, err)
	}
	var resp Response
	if err := DecodeResponse([]byte(jsonCases[2].want), &resp); err != nil || !reflect.DeepEqual(resp, full) {
		t.Errorf("golden response decodes to %+v (%v)", resp, err)
	}

	breq, err := AppendRequestBin(nil, &fullRequest)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := hex.EncodeToString(breq), "01126f72646572732f343220227122203cc3a93ef403"; got != want {
		t.Errorf("binary request:\n got %s\nwant %s", got, want)
	}
	if got, want := hex.EncodeToString(AppendResponseBin(nil, &full)),
		"ff07086c6f636b643a20652ab8170d31302e302e302e373a37313731090d31302e302e302e373a37313731"+
			"090102030405060710090a0b0c0d0e1e20"; got != want {
		t.Errorf("binary response:\n got %s\nwant %s", got, want)
	}
}

// TestPreamble: exactly two preambles are spoken — plain and forwarded.
// Everything else is refused, in particular the magics of the retired
// binary dialects, so a peer built before the formats were merged fails
// at the first byte it sends instead of misreading a response later.
func TestPreamble(t *testing.T) {
	for _, hello := range []byte{0, HelloForwarded} {
		got, err := ParsePreamble(Preamble(hello))
		if err != nil || got != hello {
			t.Errorf("ParsePreamble(Preamble(%#x)) = %#x, %v", hello, got, err)
		}
	}
	if p := Preamble(0); p[0] != MagicByte || p[0] == '{' {
		t.Errorf("preamble %x does not lead with the magic byte", p)
	}
	for _, bad := range [][PreambleLen]byte{
		{MagicByte, 'L', 'K', '1'}, {MagicByte, 'L', 'K', '2'}, {MagicByte, 'L', 'K', '3'},
		{MagicByte, 'L', 'K', '4'}, {MagicByte, 'L', 'K', 'P'}, // retired
		{MagicByte, 'L', 'K', HelloForwarded | 0x02}, // undefined hello bit
		{MagicByte, 'L', 'K', 0x80},
		{MagicByte, 'X', 'K', 0}, {MagicByte, 'L', 'X', 0}, {'{', 'L', 'K', 0},
	} {
		if _, err := ParsePreamble(bad); err == nil || !strings.Contains(err.Error(), "bad protocol magic") {
			t.Errorf("ParsePreamble(%x) = %v, want a bad-magic error", bad, err)
		}
	}
}

// TestUnknownResponseFlag: a flag bit this version does not define is a
// protocol error, not something to skip.
func TestUnknownResponseFlag(t *testing.T) {
	var resp Response
	enc := binary.AppendUvarint(nil, FlagOK|FlagOwnerHint<<1)
	if _, err := DecodeResponseBin(enc, &resp); err == nil || !strings.Contains(err.Error(), "unknown response flags") {
		t.Errorf("undefined flag bit: %v", err)
	}
}

// TestInterningDecode: the server-side decoder must reuse one string per
// recurring name, and the table must stay byte-bounded under a stream
// of unique names.
func TestInterningDecode(t *testing.T) {
	names := NewNameTable()
	op := func(req Request) []byte {
		enc, err := AppendRequestBin(nil, &req)
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	var a, b Request
	if _, err := DecodeRequestBin(op(Request{Op: OpAcquire, Name: "hot-key"}), &a, names); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRequestBin(op(Request{Op: OpRelease, Name: "hot-key"}), &b, names); err != nil {
		t.Fatal(err)
	}
	if len(names.m) != 1 {
		t.Fatalf("interning table has %d entries, want 1", len(names.m))
	}
	if a.Name != "hot-key" || b.Name != "hot-key" {
		t.Fatalf("interned names %q/%q", a.Name, b.Name)
	}

	// A pathological stream of unique long names must not grow the table
	// past its byte budget (plus one entry of slack around each reset).
	long := strings.Repeat("x", 1<<10)
	var req Request
	for i := 0; i < 4096; i++ {
		if _, err := DecodeRequestBin(op(Request{Op: OpHolds, Name: fmt.Sprintf("%s-%d", long, i)}), &req, names); err != nil {
			t.Fatal(err)
		}
		if names.bytes > maxInternedNameBytes+len(long)+16 {
			t.Fatalf("interning table grew to %d bytes, budget %d", names.bytes, maxInternedNameBytes)
		}
	}
}

// FuzzFrameDecode drives every binary decode surface with arbitrary
// bytes: framing, the op decoder over the frame's payload, and the
// response decoder over the same bytes. Nothing may panic; a decoded
// frame may never claim more bytes than are present or exceed the frame
// limit; and anything the decoders accept must re-encode to bytes that
// decode to the same values.
func FuzzFrameDecode(f *testing.F) {
	ping := BeginFrame(nil, 1)
	ping, _ = AppendRequestBin(ping, &Request{Op: OpPing})
	f.Add(EndFrame(ping, 0))
	batch := BeginFrame(nil, 42)
	batch, _ = AppendRequestBin(batch, &Request{Op: OpAcquire, Name: "key-0001", TimeoutMS: 250})
	batch, _ = AppendRequestBin(batch, &Request{Op: OpRelease, Name: "key-0001"})
	batch, _ = AppendRequestBin(batch, &Request{Op: OpEndStream})
	f.Add(EndFrame(batch, 0))
	f.Add(binary.LittleEndian.AppendUint32(nil, 0xFFFFFFFF))
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{10, 0, 0, 0, 1, 0})
	f.Add([]byte("junk that is not a frame"))
	resp := AppendResponseBin(nil, &Response{OK: true, Stats: &Stats{Acquires: 1 << 60, Sessions: -1}})
	f.Add(append([]byte{byte(len(resp) + 4), 0, 0, 0, 9, 0, 0, 0}, resp...))

	const max = 4096
	f.Fuzz(func(t *testing.T, data []byte) {
		stream, ops, rest, err := DecodeFrame(data, max)
		if err == nil {
			if len(ops) > max {
				t.Fatalf("frame of %d bytes accepted past the %d limit", len(ops), max)
			}
			if len(ops)+len(rest)+FrameHeaderLen != len(data) {
				t.Fatalf("frame claims %d+%d bytes of %d", len(ops), len(rest), len(data))
			}
			// The ops payload must decode deterministically: each op
			// either errors (ending the stream) or round-trips.
			remaining := ops
			var req Request
			for len(remaining) > 0 {
				next, derr := DecodeRequestBin(remaining, &req, nil)
				if derr != nil {
					break
				}
				if len(next) >= len(remaining) {
					t.Fatal("op decoder failed to consume input")
				}
				reenc, eerr := AppendRequestBin(nil, &req)
				if eerr != nil {
					t.Fatalf("decoded op %+v does not re-encode: %v", req, eerr)
				}
				var again Request
				if _, rerr := DecodeRequestBin(reenc, &again, nil); rerr != nil || again != req {
					t.Fatalf("op round trip: %+v -> %+v (%v)", req, again, rerr)
				}
				remaining = next
			}
			// A valid frame must survive re-framing byte-identically.
			refrm := BeginFrame(nil, stream)
			refrm = EndFrame(append(refrm, ops...), 0)
			if !bytes.Equal(refrm, data[:len(data)-len(rest)]) {
				t.Fatalf("re-framed bytes differ")
			}
		}
		// ReadFrame must agree with DecodeFrame on validity.
		_, rops, rbuf, rerr := ReadFrame(bufio.NewReader(bytes.NewReader(data)), nil, max)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("DecodeFrame err=%v but ReadFrame err=%v", err, rerr)
		}
		if rerr == nil && !bytes.Equal(rops, ops) {
			t.Fatal("ReadFrame and DecodeFrame disagree on the payload")
		}
		if cap(rbuf) > max {
			t.Fatalf("ReadFrame allocated %d bytes, past the %d limit", cap(rbuf), max)
		}
		// The response decoder gets the same hostile bytes.
		var resp Response
		if _, derr := DecodeResponseBin(data, &resp); derr == nil {
			reenc := AppendResponseBin(nil, &resp)
			var again Response
			if _, rerr := DecodeResponseBin(reenc, &again); rerr != nil {
				t.Fatalf("decoded response does not re-decode: %v", rerr)
			}
		}
	})
}
