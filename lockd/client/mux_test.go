package client

import (
	"bufio"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anonmutex/lockd/wire"
)

// countingConn counts the client's socket writes.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// pipeServer is the server's side of a net.Pipe, by hand: it reads one
// ping from each of n streams and answers them all in one write.
type pipeServer struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
	buf  []byte
}

// newPipeMux returns a mux over a net.Pipe whose writes are counted, and
// the pipe's server side.
func newPipeMux(t *testing.T) (*Mux, *countingConn, *pipeServer) {
	cc, sc := net.Pipe()
	t.Cleanup(func() { sc.Close() })
	sc.SetDeadline(time.Now().Add(10 * time.Second)) // fail, not hang
	conn := &countingConn{Conn: cc}
	m := NewMux(conn, 0)
	t.Cleanup(func() { m.Close() })
	return m, conn, &pipeServer{t: t, conn: sc, br: bufio.NewReader(sc)}
}

// readPreamble consumes the binary preamble, which leaves with the
// mux's first write.
func (s *pipeServer) readPreamble() {
	s.t.Helper()
	var preamble [wire.PreambleLen]byte
	if _, err := io.ReadFull(s.br, preamble[:]); err != nil {
		s.t.Fatal(err)
	}
}

// readRound reads one ping from each of n streams and returns their ids.
func (s *pipeServer) readRound(n int) []uint32 {
	s.t.Helper()
	ids := make([]uint32, 0, n)
	for len(ids) < n {
		stream, ops, nbuf, err := wire.ReadFrame(s.br, s.buf, 0)
		if err != nil {
			s.t.Fatalf("after %d requests: %v", len(ids), err)
		}
		s.buf = nbuf
		var req wire.Request
		if rest, err := wire.DecodeRequestBin(ops, &req, nil); err != nil || len(rest) > 0 || req.Op != wire.OpPing {
			s.t.Fatalf("stream %d sent %+v (%v), want one ping", stream, req, err)
		}
		ids = append(ids, stream)
	}
	return ids
}

// answer acknowledges every stream in ids in one write.
func (s *pipeServer) answer(ids []uint32) {
	s.t.Helper()
	var frames []byte
	for _, id := range ids {
		start := len(frames)
		frames = wire.BeginFrame(frames, id)
		frames = wire.AppendResponseBin(frames, &wire.Response{OK: true})
		frames = wire.EndFrame(frames, start)
	}
	if _, err := s.conn.Write(frames); err != nil {
		s.t.Fatal(err)
	}
}

// coalescedRounds counts the rounds whose requests left in at most two
// client writes.
func coalescedRounds(writes []int64) int {
	n := 0
	for _, w := range writes {
		if w <= 2 {
			n++
		}
	}
	return n
}

// TestMuxCoalescesWokenSenders holds the write side to its purpose: when
// one server write answers 32 streams, the 32 next requests the
// dispatch wakes leave in at most two client writes — the write of the
// sender that took the write side and yielded, plus one for streams that
// append while that write is out. On one scheduler thread nothing else
// can batch them: a sender that writes as soon as it has appended pays
// one write per request, 32 in every round. On a net.Pipe, whose write
// returns only once the peer has read it, the previous round's writer is
// sometimes still in its write loop when the next round's first stream
// appends, and takes that frame alone; those rounds cost three writes,
// so the claim is counted over rounds: about half coalesce on one thread
// (25 or 26 of 51), 26 to 36 under -race's shuffled scheduling, and at
// least a third must.
func TestMuxCoalescesWokenSenders(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	m, conn, srv := newPipeMux(t)

	const streams, rounds = 32, 51
	errs := make(chan error, streams)
	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		st, err := m.Open()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r <= rounds; r++ {
				if err := st.Ping(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}

	srv.readPreamble()
	ids := srv.readRound(streams)
	writes := make([]int64, rounds)
	for r := range writes {
		before := conn.writes.Load()
		srv.answer(ids)
		ids = srv.readRound(streams)
		writes[r] = conn.writes.Load() - before
	}
	srv.answer(ids)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	coalesced := coalescedRounds(writes)
	t.Logf("coalesced %d of %d rounds; writes per round: %v", coalesced, rounds, writes)
	if coalesced < rounds/3 {
		t.Errorf("the %d requests woken by one server write left in at most 2 client writes in %d of %d rounds, want at least %d (writes per round: %v)",
			streams, coalesced, rounds, rounds/3, writes)
	}
}

// TestMuxCoalescesSendersWokenTogether is the same claim for senders the
// mux's reader did not wake: 32 streams released at once by one event of
// the caller's own — an open-loop generator's tick, a broadcast — leave
// in at most two client writes. A round begins only when the test
// goroutine closes its gate, and by then the previous round's writer has
// left its loop, so a quiet machine coalesces every round, plain and
// under -race. A run that shares the machine can be preempted mid-round,
// so two thirds must. A sender that writes as soon as it has appended
// pays one write per request here too, 32 in every round.
func TestMuxCoalescesSendersWokenTogether(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	m, conn, srv := newPipeMux(t)

	const streams, rounds = 32, 51
	gates := make([]chan struct{}, rounds)
	for r := range gates {
		gates[r] = make(chan struct{})
	}
	errs := make(chan error, streams)
	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		st, err := m.Open()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, gate := range gates {
				<-gate
				if err := st.Ping(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}

	writes := make([]int64, rounds)
	for r, gate := range gates {
		before := conn.writes.Load()
		close(gate)
		if r == 0 {
			srv.readPreamble()
		}
		ids := srv.readRound(streams)
		writes[r] = conn.writes.Load() - before
		srv.answer(ids)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	coalesced := coalescedRounds(writes)
	t.Logf("coalesced %d of %d rounds; writes per round: %v", coalesced, rounds, writes)
	if coalesced < 2*rounds/3 {
		t.Errorf("the %d requests released together left in at most 2 client writes in %d of %d rounds, want at least %d (writes per round: %v)",
			streams, coalesced, rounds, 2*rounds/3, writes)
	}
}
