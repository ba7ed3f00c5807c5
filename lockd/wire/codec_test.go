package wire_test

// Property-style tests of the two wire formats as their users see them:
// every field combination of the protocol's shapes survives JSON
// and binary alike, and the two formats mean the same thing — a binary
// client and a JSON client are indistinguishable to the server.

import (
	"math"
	"reflect"
	"testing"

	"anonmutex/internal/xrand"
	"anonmutex/lockd/wire"
)

var codecNames = []string{
	"",
	"a",
	"key-0001",
	"orders/2024/07/26",
	`with "quotes" and \backslashes\`,
	"uni: héllo ✓ 世界",
	"<html>&entities&</html>",
	"ctrl:\n\t\r\x01",
	"trailing space ",
	string(make([]byte, 300)), // long name of NULs: worst-case escaping
}

var codecTimeouts = []int64{0, 1, -5, 123456789, math.MaxInt64, math.MinInt64}

// checkRequestCodec: req survives the JSON format, and (through
// checkRequestBinCodec) the binary one.
func checkRequestCodec(t *testing.T, req wire.Request) {
	t.Helper()
	enc := wire.AppendRequest(nil, &req)
	var got wire.Request
	if err := wire.DecodeRequest(enc, &got); err != nil {
		t.Fatalf("DecodeRequest(%s): %v", enc, err)
	}
	if got != req {
		t.Errorf("JSON round trip = %+v, want %+v", got, req)
	}
	checkRequestBinCodec(t, req)
}

// checkRequestBinCodec pins the semantic equivalence of the two wire
// formats: every protocol request round-trips binary→struct→JSON→struct
// to the identical value, so a binary client and a JSON client are
// indistinguishable to the server. Ops outside the protocol must be
// rejected by the binary encoder (the JSON format carries any string;
// the binary format's opcode table is closed on purpose).
func checkRequestBinCodec(t *testing.T, req wire.Request) {
	t.Helper()
	enc, err := wire.AppendRequestBin(nil, &req)
	if wire.Opcode(req.Op) == 0 {
		if err == nil {
			t.Errorf("AppendRequestBin(%+v) accepted an op with no opcode", req)
		}
		return
	}
	if err != nil {
		t.Fatalf("AppendRequestBin(%+v): %v", req, err)
	}
	var bgot wire.Request
	rest, err := wire.DecodeRequestBin(enc, &bgot, nil)
	if err != nil {
		t.Fatalf("DecodeRequestBin(%+v): %v", req, err)
	}
	if len(rest) != 0 {
		t.Errorf("DecodeRequestBin(%+v) left %d trailing bytes", req, len(rest))
	}
	if bgot != req {
		t.Errorf("binary round trip = %+v, want %+v", bgot, req)
	}
	// The decoded struct must re-enter the JSON format unchanged.
	var jgot wire.Request
	if err := wire.DecodeRequest(wire.AppendRequest(nil, &bgot), &jgot); err != nil {
		t.Fatalf("DecodeRequest(AppendRequest(binary round trip)): %v", err)
	}
	if jgot != req {
		t.Errorf("binary→struct→JSON→struct = %+v, want %+v", jgot, req)
	}
}

func TestRequestCodecAllFieldCombinations(t *testing.T) {
	ops := []string{wire.OpAcquire, wire.OpTryAcquire, wire.OpRelease, wire.OpCancel, wire.OpHolds, wire.OpHeartbeat, wire.OpStats, wire.OpPing, wire.OpEndStream, "unknown-op", ""}
	for _, op := range ops {
		for _, name := range codecNames {
			for _, timeout := range codecTimeouts {
				checkRequestCodec(t, wire.Request{Op: op, Name: name, TimeoutMS: timeout})
			}
		}
	}
}

// checkResponseCodec is checkRequestCodec for responses.
func checkResponseCodec(t *testing.T, resp wire.Response) {
	t.Helper()
	enc := wire.AppendResponse(nil, &resp)
	var got wire.Response
	if err := wire.DecodeResponse(enc, &got); err != nil {
		t.Fatalf("DecodeResponse(%s): %v", enc, err)
	}
	if !reflect.DeepEqual(got, resp) {
		t.Errorf("JSON round trip = %+v, want %+v", got, resp)
	}
	checkResponseBinCodec(t, resp)
}

// checkResponseBinCodec is the response half of the cross-format
// equivalence property: binary→struct→JSON→struct must reproduce the
// value exactly, including full-range stats counters.
func checkResponseBinCodec(t *testing.T, resp wire.Response) {
	t.Helper()
	enc := wire.AppendResponseBin(nil, &resp)
	var bgot wire.Response
	rest, err := wire.DecodeResponseBin(enc, &bgot)
	if err != nil {
		t.Fatalf("DecodeResponseBin(%+v): %v", resp, err)
	}
	if len(rest) != 0 {
		t.Errorf("DecodeResponseBin(%+v) left %d trailing bytes", resp, len(rest))
	}
	if !reflect.DeepEqual(bgot, resp) {
		t.Errorf("binary round trip = %+v, want %+v", bgot, resp)
	}
	var jgot wire.Response
	if err := wire.DecodeResponse(wire.AppendResponse(nil, &bgot), &jgot); err != nil {
		t.Fatalf("DecodeResponse(AppendResponse(binary round trip)): %v", err)
	}
	if !reflect.DeepEqual(jgot, resp) {
		t.Errorf("binary→struct→JSON→struct = %+v, want %+v", jgot, resp)
	}
}

func TestResponseCodecAllFieldCombinations(t *testing.T) {
	statsCases := []*wire.Stats{
		nil,
		{},
		{
			Acquires: 1, Releases: 2, Waits: 3, TryAcquires: 4, TryFailures: 5,
			LockCreates: 6, Evictions: 7, ResidentLocks: 8, Aborts: 9,
			LeaseTimeouts: 10, Expired: 11, Revoked: 12, FencedRejects: 13,
			Violations: 14, Sessions: 15, Streams: 16,
		},
		{Acquires: math.MaxUint64, Violations: math.MaxUint64, FencedRejects: math.MaxUint64,
			ResidentLocks: math.MaxInt32, Sessions: -1, Streams: -64},
	}
	type leaseFields struct {
		token  uint64
		ttl    int64
		fenced bool
	}
	leaseCases := []leaseFields{
		{},
		{token: 1},
		{token: math.MaxUint64, ttl: 12345, fenced: true},
		{ttl: math.MaxInt64},
		{fenced: true},
	}
	type redirectFields struct {
		wrongOwner bool
		ownerHint  bool
		owner      string
		epoch      uint64
	}
	redirectCases := []redirectFields{
		{},
		{wrongOwner: true, owner: "10.0.0.7:7171", epoch: 3},
		{wrongOwner: true, owner: "", epoch: math.MaxUint64},
		{ownerHint: true, owner: "10.0.0.7:7171", epoch: 3},
		{ownerHint: true, owner: "", epoch: math.MaxUint64},
	}
	errs := []string{"", "lockd: session does not hold \"x\"", "uni ✓ <err>"}
	for _, ok := range []bool{false, true} {
		for _, errStr := range errs {
			for _, acquired := range []bool{false, true} {
				for _, aborted := range []bool{false, true} {
					for _, holds := range []bool{false, true} {
						for _, lf := range leaseCases {
							for _, rd := range redirectCases {
								for _, stats := range statsCases {
									checkResponseCodec(t, wire.Response{
										OK: ok, Err: errStr, Acquired: acquired,
										Aborted: aborted, Holds: holds,
										Token: lf.token, TTLMS: lf.ttl, Fenced: lf.fenced,
										WrongOwner: rd.wrongOwner, OwnerHint: rd.ownerHint,
										Owner: rd.owner, Epoch: rd.epoch,
										Stats: stats,
									})
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestRequestCodecRandomized hammers the string path with seeded random
// names mixing ASCII, escapes, multi-byte runes, and control characters.
func TestRequestCodecRandomized(t *testing.T) {
	r := xrand.New(7)
	alphabet := []rune("abz019_-./ \"\\<>&\t\nπ✓世\u2028\uffff")
	for i := 0; i < 2000; i++ {
		n := r.Intn(24)
		name := make([]rune, n)
		for j := range name {
			name[j] = alphabet[r.Intn(len(alphabet))]
		}
		checkRequestCodec(t, wire.Request{
			Op:        wire.OpAcquire,
			Name:      string(name),
			TimeoutMS: int64(r.Intn(1000)) - 500,
		})
	}
}

// TestDecodeForeignShapes: the decoder must accept what foreign clients
// may legally send — reordered fields, whitespace, unknown fields, null
// stats.
func TestDecodeForeignShapes(t *testing.T) {
	cases := []struct {
		line string
		want wire.Request
	}{
		{`{"name":"k","op":"acquire"}`, wire.Request{Op: wire.OpAcquire, Name: "k"}},
		{` { "op" : "try" , "timeout_ms" : 42 , "name" : "x" } `, wire.Request{Op: wire.OpTryAcquire, Name: "x", TimeoutMS: 42}},
		{`{"op":"ping","future_field":{"nested":[1,2.5,"s",null,true]},"name":"p"}`, wire.Request{Op: wire.OpPing, Name: "p"}},
		{`{"op":"release","name":"\u0068\u00e9\ud83d\ude00"}`, wire.Request{Op: wire.OpRelease, Name: "hé😀"}},
		{`{"ok":1}`, wire.Request{}}, // a response's field means nothing in a request
		{`{}`, wire.Request{}},
	}
	for _, c := range cases {
		var got wire.Request
		if err := wire.DecodeRequest([]byte(c.line), &got); err != nil {
			t.Errorf("DecodeRequest(%s): %v", c.line, err)
			continue
		}
		if got != c.want {
			t.Errorf("DecodeRequest(%s) = %+v, want %+v", c.line, got, c.want)
		}
	}

	var resp wire.Response
	if err := wire.DecodeResponse([]byte(`{"stats":null,"ok":true,"extra":"x"}`), &resp); err != nil {
		t.Fatalf("DecodeResponse with null stats: %v", err)
	}
	if !resp.OK || resp.Stats != nil {
		t.Errorf("null-stats decode = %+v", resp)
	}
}

// TestDecodeRejectsGarbage: a malformed line must error, not misparse.
// (lockd's test of the same name sends these lines to a live server.)
func TestDecodeRejectsGarbage(t *testing.T) {
	for _, line := range []string{
		``, `x`, `{`, `{"op"}`, `{"op":}`, `{"op":"a"`, `{"op":"a",}`,
		`{"timeout_ms":"5"}`, `{"op":7}`, `{"op":"a" "name":"b"}`,
		`{"name":"unterminated}`, `[]`, `"acquire"`,
		// Trailing data after the object: a second object on the line
		// would otherwise be silently dropped and desynchronize a
		// pipelining client.
		`{"op":"ping"} junk`,
		`{"op":"acquire","name":"a"}{"op":"release","name":"a"}`,
	} {
		var req wire.Request
		if err := wire.DecodeRequest([]byte(line), &req); err == nil {
			t.Errorf("DecodeRequest(%q) accepted garbage as %+v", line, req)
		}
	}
	var resp wire.Response
	if err := wire.DecodeResponse([]byte(`{"ok":1}`), &resp); err == nil {
		t.Errorf(`DecodeResponse({"ok":1}) accepted a number as a boolean`)
	}
}
