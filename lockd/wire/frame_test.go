package wire_test

// Frame-layer tests: the binary mirror of lockd/maxline_test.go's
// contract — frames beyond the limit (or malformed below it) error
// cleanly instead of ballooning memory or mis-framing. The fuzz harness
// over the same decoders is FuzzFrameDecode in wire_test.go.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"

	"anonmutex/lockd/wire"
)

// TestFrameRoundTrip: Begin/EndFrame against DecodeFrame and ReadFrame,
// including batched ops and trailing data (the next frame) left intact.
func TestFrameRoundTrip(t *testing.T) {
	reqs := []wire.Request{
		{Op: wire.OpAcquire, Name: "key-0001", TimeoutMS: 250},
		{Op: wire.OpHolds, Name: "key-0001"},
		{Op: wire.OpRelease, Name: "key-0001"},
		{Op: wire.OpPing},
	}
	frame := wire.BeginFrame(nil, 7)
	for i := range reqs {
		var err error
		if frame, err = wire.AppendRequestBin(frame, &reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	frame = wire.EndFrame(frame, 0)
	trailer := []byte("next frame bytes")
	raw := append(append([]byte{}, frame...), trailer...)

	stream, ops, rest, err := wire.DecodeFrame(raw, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stream != 7 {
		t.Errorf("stream = %d, want 7", stream)
	}
	if !bytes.Equal(rest, trailer) {
		t.Errorf("rest = %q, want %q", rest, trailer)
	}
	var got wire.Request
	for i := range reqs {
		if ops, err = wire.DecodeRequestBin(ops, &got, nil); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if got != reqs[i] {
			t.Errorf("op %d = %+v, want %+v", i, got, reqs[i])
		}
	}
	if len(ops) != 0 {
		t.Errorf("%d trailing op bytes", len(ops))
	}

	// ReadFrame must agree with DecodeFrame on the same bytes.
	br := bufio.NewReader(bytes.NewReader(raw))
	rstream, rops, _, err := wire.ReadFrame(br, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rstream != 7 || !bytes.Equal(rops, frame[wire.FrameHeaderLen:]) {
		t.Errorf("ReadFrame disagrees with DecodeFrame")
	}
	left, _ := io.ReadAll(br)
	if !bytes.Equal(left, trailer) {
		t.Errorf("ReadFrame consumed past its frame: %q left", left)
	}
}

// TestFrameLimitContract mirrors the oversized-line contract: a length
// prefix past the limit errors with the frame-limit error — before any
// payload is read — and a length too short to hold its stream id errors
// too; neither mis-frames.
func TestFrameLimitContract(t *testing.T) {
	huge := binary.LittleEndian.AppendUint32(nil, 1<<30)
	huge = binary.LittleEndian.AppendUint32(huge, 1)

	if _, _, _, err := wire.DecodeFrame(huge, 1<<16); !errors.Is(err, wire.ErrFrameTooBig) {
		t.Errorf("DecodeFrame oversize: %v", err)
	}
	// ReadFrame must reject on the header alone: the reader holds only 8
	// bytes, so reaching for the payload would block or fail — erroring
	// first is what keeps a hostile length from ballooning memory.
	br := bufio.NewReader(bytes.NewReader(huge))
	if _, _, _, err := wire.ReadFrame(br, nil, 1<<16); !errors.Is(err, wire.ErrFrameTooBig) {
		t.Errorf("ReadFrame oversize: %v", err)
	}

	short := binary.LittleEndian.AppendUint32(nil, 3)
	short = append(short, 0, 0, 0, 0)
	if _, _, _, err := wire.DecodeFrame(short, 0); !errors.Is(err, wire.ErrShortFrame) {
		t.Errorf("DecodeFrame short length: %v", err)
	}
	if _, _, _, err := wire.ReadFrame(bufio.NewReader(bytes.NewReader(short)), nil, 0); !errors.Is(err, wire.ErrShortFrame) {
		t.Errorf("ReadFrame short length: %v", err)
	}

	// Truncation: a frame that promises more than the stream holds.
	trunc := binary.LittleEndian.AppendUint32(nil, 100)
	trunc = binary.LittleEndian.AppendUint32(trunc, 1)
	trunc = append(trunc, "only a little"...)
	if _, _, _, err := wire.DecodeFrame(trunc, 0); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("DecodeFrame truncated: %v", err)
	}
	if _, _, _, err := wire.ReadFrame(bufio.NewReader(bytes.NewReader(trunc)), nil, 0); err != io.ErrUnexpectedEOF {
		t.Errorf("ReadFrame truncated: %v", err)
	}
}

// TestFrameBufferReuse: ReadFrame reuses the caller's buffer across
// frames and never allocates past the frame limit.
func TestFrameBufferReuse(t *testing.T) {
	var all []byte
	for i := 0; i < 3; i++ {
		frame := wire.BeginFrame(nil, uint32(i+1))
		frame, _ = wire.AppendRequestBin(frame, &wire.Request{Op: wire.OpPing})
		all = append(all, wire.EndFrame(frame, 0)...)
	}
	br := bufio.NewReader(bytes.NewReader(all))
	var buf []byte
	var firstCap int
	for i := 0; i < 3; i++ {
		var err error
		_, _, buf, err = wire.ReadFrame(br, buf, 1<<10)
		if err != nil {
			t.Fatal(err)
		}
		if cap(buf) > 1<<10 {
			t.Fatalf("buffer grew to %d, past the %d limit", cap(buf), 1<<10)
		}
		if i == 0 {
			firstCap = cap(buf)
		} else if cap(buf) != firstCap {
			t.Errorf("frame %d reallocated the buffer (cap %d -> %d)", i, firstCap, cap(buf))
		}
	}
}
