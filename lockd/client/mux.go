package client

// Mux carries logical sessions over one socket: each Open() returns a
// *Conn — same methods, same pipelining, same Cancel semantics on every
// socket — and one reader goroutine routes responses back to per-stream
// FIFO queues, so a cancelled or blocked stream never desyncs its
// siblings. The socket speaks one of the two framings of the server's
// one connection loop (lockd/transport.go):
//
//   - binary (NewMux, DialMux): the preamble, then length-prefixed frames,
//     each naming its stream; any number of streams.
//   - newline-JSON (NewConn, DialConn): no preamble, one request per line,
//     and the socket's one implicit stream; closing it closes the socket.
//
// Writes follow the server's rule under both: one write carries every
// request that is ready. A sender appends its requests to the write
// buffer; if no goroutine owns the write side, it takes it, yields once
// so the goroutines woken with it — by one socket read's dispatch, or by
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
	"math"
	"net"
	"runtime"
	"slices"
	"sync"

	"anonmutex/lockd/wire"
)

// errStreamClosed fails requests issued on a stream after Close, and
// Opens on a socket retired with its last stream.
var errStreamClosed = errors.New("stream closed")

// batchPool recycles the multi-response channels Batch matches its
// responses on; sized for the common small batch.
const batchPoolCap = 16

var batchPool = sync.Pool{
	New: func() any { return make(chan result, batchPoolCap) },
}

// Mux is one connection carrying logical sessions. Create a binary one
// with DialMux or NewMux, open sessions with Open, tear the whole socket
// down with Close.
type Mux struct {
	c net.Conn
	// json selects the newline-JSON framing: one stream, no stream ids.
	json bool
	// pool, when set, is the muxPool that dialed this socket: once its last
	// stream ends the socket is closed and the pool drops it. A JSON
	// socket retires with its stream whether pooled or not.
	pool *muxPool

	// sendMu serializes request appends and queue pushes (order on the
	// wire must match each stream's queue order) and guards out, spare and
	// writing. It is never held across a socket write.
	sendMu sync.Mutex
	// out holds the requests no write has taken yet; spare is the other
	// half of the double buffer, nil while a write has it in flight.
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

// dial connects to a lockd server, reporting a refusal as ErrUnavailable.
func dial(addr string) (net.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("client: dialing lockd at %s: %w: %w", addr, ErrUnavailable, err)
	}
	return c, nil
}

// DialMux connects to a lockd server and negotiates the binary framed
// protocol.
func DialMux(addr string) (*Mux, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, err
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
	m := newMux(c, false, hello)
	go m.readLoop()
	return m
}

// newMux makes a socket's client side without starting its reader, so a
// caller can open the first stream before anything can break the socket.
func newMux(c net.Conn, json bool, hello byte) *Mux {
	m := &Mux{c: c, json: json, streams: make(map[uint32]*Conn)}
	if !json {
		preamble := wire.Preamble(hello)
		m.out = preamble[:]
	}
	return m
}

// Open starts a new logical session on the mux. The returned Conn
// supports the full client API; Close retires just this stream (the
// server releases its grants) and leaves the socket up for its siblings.
func (m *Mux) Open() (*Conn, error) {
	return m.open(math.MaxInt)
}

// open starts a stream unless the socket is broken (an error) or already
// carries limit streams (nil, nil).
func (m *Mux) open(limit int) (*Conn, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.broken != nil {
		return nil, fmt.Errorf("client: open stream: %w: %w", ErrUnavailable, m.broken)
	}
	if len(m.streams) >= limit {
		return nil, nil
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

// send writes reqs for st in the socket's framing — one frame on st's
// stream, or one line each — after registering ch for their responses
// (Conn.enqueue), the append and the registration atomic under sendMu so
// the stream's FIFO matches the wire order. It never partially registers:
// on an error nothing was queued and nothing was written. The requests
// are written by the goroutine that owns the write side, or else by this
// call, which takes the write side, yields once so the goroutines
// runnable beside it can append theirs, and writes until the buffer is
// empty. A failed write is not reported here: it closes the connection —
// the reader then fails every waiter, this one's included — and drops
// what is buffered.
func (m *Mux) send(st *Conn, reqs []wire.Request, ch chan result) error {
	m.sendMu.Lock()
	start := len(m.out)
	var err error
	m.out, err = m.appendRequests(m.out, st.stream, reqs)
	if err == nil {
		err = st.enqueue(reqs, ch)
	}
	if err != nil {
		m.out = m.out[:start]
		m.sendMu.Unlock()
		return err
	}
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

// appendRequests encodes reqs onto dst in the socket's framing: one
// newline-terminated JSON object each, or one binary frame on stream.
func (m *Mux) appendRequests(dst []byte, stream uint32, reqs []wire.Request) ([]byte, error) {
	if m.json {
		for i := range reqs {
			dst = append(wire.AppendRequest(dst, &reqs[i]), '\n')
		}
		return dst, nil
	}
	start := len(dst)
	dst = wire.BeginFrame(dst, stream)
	for i := range reqs {
		var err error
		if dst, err = wire.AppendRequestBin(dst, &reqs[i]); err != nil {
			return dst, err
		}
	}
	return wire.EndFrame(dst, start), nil
}

// closeStream retires one logical session. On a binary socket the server
// acks an end_stream after releasing the stream's grants; a JSON socket's
// one stream ends with the socket. A socket nobody else can open a
// stream on — a JSON one, or a pool's — is closed with its last stream.
func (m *Mux) closeStream(st *Conn) error {
	st.mu.Lock()
	broken := st.broken != nil
	st.mu.Unlock()
	var err error
	if !m.json && !broken {
		_, err = st.do(wire.Request{Op: wire.OpEndStream})
	}
	st.fail(errStreamClosed)
	m.mu.Lock()
	if m.streams[st.stream] == st {
		delete(m.streams, st.stream)
	}
	retire := len(m.streams) == 0 && (m.json || m.pool != nil)
	if retire && m.broken == nil {
		m.broken = errStreamClosed
	}
	m.mu.Unlock()
	if retire {
		m.c.Close()
		if m.pool != nil {
			m.pool.drop(m)
		}
	}
	return err
}

// readLoop owns the inbound half: it reads responses in the socket's
// framing and hands each to its stream's oldest waiter. Per-stream FIFOs
// are what keep sibling streams independent: a response only ever
// advances its own stream's queue. Whatever ends the reader breaks the
// whole socket.
func (m *Mux) readLoop() {
	br := bufio.NewReader(m.c)
	if m.json {
		m.fail(m.readLines(br))
	} else {
		m.fail(m.readFrames(br))
	}
}

// readFrames reads binary frames, each a batch of responses for one
// stream. A frame on the reserved stream 0 carries the server's
// connection-fatal protocol error.
func (m *Mux) readFrames(br *bufio.Reader) error {
	var buf []byte
	for {
		var id uint32
		var ops []byte
		var err error
		id, ops, buf, err = wire.ReadFrame(br, buf, wire.DefaultMaxFrameBytes)
		if err != nil {
			return fmt.Errorf("connection broken: %w", err)
		}
		if id == 0 {
			var resp wire.Response
			if _, derr := wire.DecodeResponseBin(ops, &resp); derr == nil && resp.Err != "" {
				return fmt.Errorf("server error: %s", resp.Err)
			}
			return errors.New("server error on stream 0")
		}
		st, err := m.stream(id)
		if err != nil {
			return err
		}
		for len(ops) > 0 {
			var res result
			if ops, err = wire.DecodeResponseBin(ops, &res.resp); err != nil {
				return fmt.Errorf("bad response: %w", err)
			}
			if !st.deliver(res) {
				return fmt.Errorf("response with no request in flight on stream %d", id)
			}
		}
	}
}

// readLines reads newline-JSON responses, every one for the socket's one
// stream. A line longer than the reader's buffer — an error echoing a
// long name — is accumulated.
func (m *Mux) readLines(br *bufio.Reader) error {
	var scratch []byte
	for {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			scratch = append(scratch[:0], line...)
			for err == bufio.ErrBufferFull {
				line, err = br.ReadSlice('\n')
				scratch = append(scratch, line...)
			}
			line = scratch
		}
		if err != nil {
			return fmt.Errorf("connection broken: %w", err)
		}
		var res result
		if err := wire.DecodeResponse(line[:len(line)-1], &res.resp); err != nil {
			return fmt.Errorf("bad response: %w", err)
		}
		st, err := m.stream(1)
		if err != nil {
			return err
		}
		if !st.deliver(res) {
			return errors.New("response with no request in flight")
		}
	}
}

// stream looks up the live stream a response is for.
func (m *Mux) stream(id uint32) (*Conn, error) {
	m.mu.Lock()
	st := m.streams[id]
	m.mu.Unlock()
	if st == nil {
		return nil, fmt.Errorf("response on unknown stream %d", id)
	}
	return st, nil
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

// muxPool opens a poolClient's sub-sessions to one address, packed onto
// as few sockets as the per-socket budget allows: ConnsPerSocket streams
// on a binary socket, one on a JSON socket. A socket whose last stream
// ends is closed and dropped, so sessions that come and go leave no
// sockets behind.
type muxPool struct {
	addr      string
	json      bool
	perSocket int // ≥ 1

	mu    sync.Mutex
	muxes []*Mux
}

// Open returns a new logical session on the first live socket with a free
// slot, dialing a fresh socket only when none has one. A socket that
// broke (the server restarted, a failover killed the connection) is
// dropped on the way, so it cannot wedge the pool.
func (p *muxPool) Open() (*Conn, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := 0; i < len(p.muxes); {
		st, err := p.muxes[i].open(p.perSocket)
		if st != nil {
			return st, nil
		}
		if err != nil {
			p.muxes[i].Close()
			p.muxes = slices.Delete(p.muxes, i, i+1)
			continue
		}
		i++
	}
	c, err := dial(p.addr)
	if err != nil {
		return nil, err
	}
	m := newMux(c, p.json, 0)
	m.pool = p
	st, _ := m.open(p.perSocket) // a fresh socket is neither broken nor full
	go m.readLoop()
	p.muxes = append(p.muxes, m)
	return st, nil
}

// drop forgets a socket retired with its last stream.
func (p *muxPool) drop(m *Mux) {
	p.mu.Lock()
	if i := slices.Index(p.muxes, m); i >= 0 {
		p.muxes = slices.Delete(p.muxes, i, i+1)
	}
	p.mu.Unlock()
}
