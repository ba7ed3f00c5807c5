package lockd

// The allocation budget of the binary protocol's per-op pipeline: decode
// one binary op, execute it, encode the response into the stream's frame
// — ZERO heap allocations for the hot ops (uncontended acquire, release,
// holds, ping, failed try) once the session and the lock entry are warm.
// These tests enforce the budget, so a regression fails CI instead of
// quietly eroding latency (bench/'s ladder reports allocs_per_cycle for
// the whole cycle). The JSON protocol has no such budget: it is
// encoding/json, off every measured path.

import (
	"context"
	"testing"

	"anonmutex/internal/lockmgr"
	"anonmutex/lockd/wire"
)

// binPipeline is a warm server+session pair the way serveBinary builds
// it, with the reader-side interning table and a reused response frame.
type binPipeline struct {
	t     *testing.T
	s     *Server
	sess  *session
	names *wire.NameTable
	req   wire.Request
	frame []byte
}

func newBinPipeline(t *testing.T) *binPipeline {
	t.Helper()
	mgr, err := lockmgr.New(lockmgr.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	return &binPipeline{
		t: t, s: NewServer(mgr), sess: newSession(), names: wire.NewNameTable(),
		frame: wire.BeginFrame(make([]byte, 0, 512), 1),
	}
}

// encode is one op's request bytes, as a client would frame them.
func (p *binPipeline) encode(req wire.Request) []byte {
	p.t.Helper()
	op, err := wire.AppendRequestBin(nil, &req)
	if err != nil {
		p.t.Fatal(err)
	}
	return op
}

// run is the exact per-op pipeline of the stream loop, framing included
// (BeginFrame/EndFrame on the reused buffer).
func (p *binPipeline) run(op []byte) wire.Response {
	if _, err := wire.DecodeRequestBin(op, &p.req, p.names); err != nil {
		p.t.Fatalf("decode: %v", err)
	}
	resp := p.s.handle(context.Background(), p.sess, p.req, nil)
	if resp.Err != "" {
		p.t.Fatalf("handle: %s", resp.Err)
	}
	p.frame = wire.AppendResponseBin(p.frame, &resp)
	p.frame = wire.EndFrame(p.frame, 0)
	p.frame = wire.BeginFrame(p.frame[:0], 1)
	return resp
}

func TestServerBinarySteadyStateZeroAllocs(t *testing.T) {
	p := newBinPipeline(t)
	acquire := p.encode(wire.Request{Op: wire.OpAcquire, Name: "hot-key"})
	release := p.encode(wire.Request{Op: wire.OpRelease, Name: "hot-key"})
	holds := p.encode(wire.Request{Op: wire.OpHolds, Name: "hot-key"})
	ping := p.encode(wire.Request{Op: wire.OpPing})

	cycle := func() {
		p.run(acquire)
		p.run(holds)
		p.run(release)
		p.run(ping)
	}
	// Warm up: materialize the lock entry, the handles, the interned
	// name, and the session map buckets.
	for i := 0; i < 3; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Errorf("binary loop: %.1f allocs per steady-state cycle, budget is 0", allocs)
	}
}

// TestServerFailedTryZeroAllocs covers the contended fail-fast probe: a
// try on a held lock must also stay off the heap.
func TestServerFailedTryZeroAllocs(t *testing.T) {
	p := newBinPipeline(t)
	holder := &binPipeline{t: t, s: p.s, sess: newSession(), names: p.names, frame: wire.BeginFrame(nil, 2)}
	if resp := holder.run(p.encode(wire.Request{Op: wire.OpAcquire, Name: "hot-key"})); !resp.Acquired {
		t.Fatalf("setup acquire failed: %+v", resp)
	}

	try := p.encode(wire.Request{Op: wire.OpTryAcquire, Name: "hot-key"})
	for i := 0; i < 3; i++ {
		if resp := p.run(try); resp.Acquired {
			t.Fatal("try on a held lock succeeded")
		}
	}
	if allocs := testing.AllocsPerRun(200, func() { p.run(try) }); allocs != 0 {
		t.Errorf("failed try: %.1f allocs per request, budget is 0", allocs)
	}
	if resp := holder.run(p.encode(wire.Request{Op: wire.OpRelease, Name: "hot-key"})); !resp.OK {
		t.Fatalf("teardown release failed: %+v", resp)
	}
}
