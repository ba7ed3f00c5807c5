package client

// Mux multiplexes many logical sessions over one socket using lockd's
// binary framed protocol: each Open() returns a *Conn that behaves
// exactly like a dialed connection — same methods, same pipelining, same
// Cancel semantics — but shares the underlying TCP connection with its
// siblings. One reader goroutine demultiplexes response frames back to
// per-stream FIFO queues, so a cancelled or blocked stream never desyncs
// its siblings.
//
// Writes follow the server's rule: one write carries every request that
// is ready. A sender appends its frame to the write buffer; if no
// goroutine owns the write side, it takes it, yields once so the
// goroutines woken with it — by one socket read's dispatch, or by
// whatever woke this sender — can append theirs, and then writes
// everything buffered in one syscall. A double buffer gives the write
// side one owner, which writes until the buffer is empty; sendMu is
// never held across a socket write. The reader never writes, so it never
// waits on the peer: a reader blocked writing to a server whose reader is
// blocked writing back would wedge both sides.

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"

	"anonmutex/lockd/wire"
)

// errStreamClosed fails requests issued on a mux stream after Close.
var errStreamClosed = errors.New("stream closed")

// batchPool recycles the multi-response channels Batch matches its
// responses on; sized for the common small batch.
const batchPoolCap = 16

var batchPool = sync.Pool{
	New: func() any { return make(chan result, batchPoolCap) },
}

// Mux is one binary-protocol connection carrying many logical sessions.
// Create with DialMux or NewMux, open sessions with Open, tear the whole
// socket down with Close.
type Mux struct {
	c net.Conn

	// sendMu serializes frame appends and queue pushes (order on the wire
	// must match each stream's queue order) and guards out, spare and
	// writing. It is never held across a socket write.
	sendMu sync.Mutex
	// out holds the frames no write has taken yet; spare is the other half
	// of the double buffer, nil while a write has it in flight.
	out, spare []byte
	// writing is set while one goroutine owns the socket's write side. The
	// owner writes until out is empty, so a sender that finds it set only
	// appends.
	writing bool

	mu      sync.Mutex
	streams map[uint32]*Conn
	nextID  uint32
	broken  error
}

// DialMux connects to a lockd server and negotiates the binary framed
// protocol.
func DialMux(addr string) (*Mux, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("client: dialing lockd at %s: %w: %w", addr, ErrUnavailable, err)
	}
	return NewMux(c, 0), nil
}

// NewMux wraps an already-established connection as a binary multiplexed
// client. The Mux takes ownership of c and immediately stakes the
// protocol claim: the binary preamble is buffered ahead of the first
// frame (the server reads it before anything else). hello is the
// preamble's flag byte, fixed by who is calling: 0 from a client,
// wire.HelloForwarded from a proxy-mode server's inter-node link.
func NewMux(c net.Conn, hello byte) *Mux {
	preamble := wire.Preamble(hello)
	m := &Mux{c: c, out: preamble[:], streams: make(map[uint32]*Conn)}
	go m.readLoop()
	return m
}

// Open starts a new logical session on the mux. The returned Conn
// supports the full client API; Close retires just this stream (the
// server releases its grants) and leaves the socket up for its siblings.
func (m *Mux) Open() (*Conn, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.broken != nil {
		return nil, fmt.Errorf("client: open stream: %w: %w", ErrUnavailable, m.broken)
	}
	m.nextID++
	st := &Conn{mux: m, stream: m.nextID}
	m.streams[st.stream] = st
	return st, nil
}

// Close tears down the socket: every stream and every in-flight request
// fails, and the server reaps every stream's grants.
func (m *Mux) Close() error {
	return m.c.Close()
}

// send is Conn.send on a mux stream: reqs go out as one frame on st's
// stream, with registration and the frame's append atomic under sendMu
// so the stream's FIFO matches the wire order. The frame is written by
// the goroutine that owns the write side, or else by this call, which
// takes the write side, yields once so the goroutines runnable beside it
// can append their frames, and writes until the buffer is empty. A
// failed write closes the connection — the reader then fails every
// waiter, this one's included — and drops what is buffered.
func (m *Mux) send(st *Conn, reqs []wire.Request, ch chan result) error {
	m.sendMu.Lock()
	start := len(m.out)
	m.out = wire.BeginFrame(m.out, st.stream)
	var err error
	for i := range reqs {
		if m.out, err = wire.AppendRequestBin(m.out, &reqs[i]); err != nil {
			break
		}
	}
	if err == nil {
		err = st.enqueue(reqs, ch)
	}
	if err != nil {
		m.out = m.out[:start]
		m.sendMu.Unlock()
		return err
	}
	m.out = wire.EndFrame(m.out, start)
	if m.writing {
		m.sendMu.Unlock()
		return nil
	}
	m.writing = true
	m.sendMu.Unlock()
	runtime.Gosched()
	m.sendMu.Lock()
	for len(m.out) > 0 {
		buf := m.out
		m.out, m.spare = m.spare[:0], nil
		m.sendMu.Unlock()
		_, werr := m.c.Write(buf)
		m.sendMu.Lock()
		m.spare = buf[:0]
		if werr != nil {
			m.out = m.out[:0]
			m.c.Close()
		}
	}
	m.writing = false
	m.sendMu.Unlock()
	return nil
}

// closeStream retires one logical session: the server acks after
// releasing the stream's grants, then both sides forget the stream.
func (m *Mux) closeStream(st *Conn) error {
	st.mu.Lock()
	already := st.broken != nil
	st.mu.Unlock()
	if already {
		return nil
	}
	_, err := st.do(wire.Request{Op: wire.OpEndStream})
	st.fail(errStreamClosed)
	m.mu.Lock()
	if m.streams[st.stream] == st {
		delete(m.streams, st.stream)
	}
	m.mu.Unlock()
	return err
}

// readLoop owns the inbound half: it reads response frames and routes
// each frame's batch of responses to its stream's oldest waiters, in
// order. Per-stream FIFOs are what keep sibling streams independent: a
// response only ever advances its own stream's queue. Any read or decode
// failure — and any frame on the reserved stream 0, which carries the
// server's connection-fatal protocol errors — breaks the whole mux.
func (m *Mux) readLoop() {
	br := bufio.NewReader(m.c)
	var buf []byte
	for {
		var stream uint32
		var ops []byte
		var err error
		stream, ops, buf, err = wire.ReadFrame(br, buf, wire.DefaultMaxFrameBytes)
		if err != nil {
			m.fail(fmt.Errorf("mux broken: %w", err))
			return
		}
		if stream == 0 {
			var resp wire.Response
			if _, derr := wire.DecodeResponseBin(ops, &resp); derr == nil && resp.Err != "" {
				m.fail(fmt.Errorf("server error: %s", resp.Err))
			} else {
				m.fail(errors.New("server error on stream 0"))
			}
			return
		}
		m.mu.Lock()
		st := m.streams[stream]
		m.mu.Unlock()
		if st == nil {
			m.fail(fmt.Errorf("response on unknown stream %d", stream))
			return
		}
		for len(ops) > 0 {
			var res result
			if ops, err = wire.DecodeResponseBin(ops, &res.resp); err != nil {
				m.fail(fmt.Errorf("bad response: %w", err))
				return
			}
			if !st.deliver(res) {
				m.fail(fmt.Errorf("response with no request in flight on stream %d", stream))
				return
			}
		}
	}
}

// fail breaks the mux: every stream's waiters are unblocked with err and
// later requests and Opens fail fast.
func (m *Mux) fail(err error) {
	m.mu.Lock()
	if m.broken == nil {
		m.broken = err
	}
	sts := make([]*Conn, 0, len(m.streams))
	for _, st := range m.streams {
		sts = append(sts, st)
	}
	m.mu.Unlock()
	for _, st := range sts {
		st.fail(err)
	}
}

// muxPool opens logical sessions packed onto as few sockets as the
// conns-per-socket budget allows: a poolClient's transport to one address
// under ProtoBinary.
type muxPool struct {
	addr      string
	perSocket int // Options.ConnsPerSocket: ≥ 1 once withDefaults has run

	mu    sync.Mutex
	muxes []*Mux
	open  int // streams opened on the newest mux
}

// Open returns a new logical session, dialing a fresh socket only when
// the newest one is full. A newest socket that broke (the server
// restarted, a failover killed the connection) does not wedge the pool:
// Open retires it and dials a replacement.
func (p *muxPool) Open() (*Conn, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for try := 0; ; try++ {
		if len(p.muxes) == 0 || p.open >= p.perSocket {
			m, err := DialMux(p.addr)
			if err != nil {
				return nil, err
			}
			p.muxes = append(p.muxes, m)
			p.open = 0
		}
		st, err := p.muxes[len(p.muxes)-1].Open()
		if err != nil {
			// Heal once: drop the broken socket and dial a fresh one; a
			// second failure is reported (the server itself is refusing).
			if try == 0 && errors.Is(err, ErrUnavailable) {
				p.muxes[len(p.muxes)-1].Close()
				p.muxes = p.muxes[:len(p.muxes)-1]
				p.open = p.perSocket
				continue
			}
			return nil, err
		}
		p.open++
		return st, nil
	}
}

// Close tears down every socket in the pool.
func (p *muxPool) Close() error {
	p.mu.Lock()
	muxes := p.muxes
	p.muxes = nil
	p.open = 0
	p.mu.Unlock()
	var first error
	for _, m := range muxes {
		if err := m.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
