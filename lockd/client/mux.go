package client

// Mux carries logical sessions over one socket: each Open() returns a
// *Conn — same methods, same pipelining, same Cancel semantics on every
// socket — and responses are routed back to per-stream FIFO queues, so a
// cancelled or blocked stream never desyncs its siblings. The socket
// speaks one of the two framings of the server's one connection loop
// (lockd/transport.go):
//
//   - binary (NewMux, DialMux): the preamble, then length-prefixed frames,
//     each naming its stream; any number of streams.
//   - newline-JSON (NewConn, DialConn): no preamble, one request per line,
//     and the socket's one implicit stream; closing it closes the socket.
//
// Writes follow the server's rule under both: one write carries every
// request that is ready. A sender appends its requests to the write
// buffer; if no goroutine owns the write side, it takes it and writes
// everything buffered, until the buffer is empty. A double buffer gives
// the write side one owner; sendMu is never held across a socket write.
// The sender that takes the write side yields once first, so that the
// goroutines woken with it — by one socket read's dispatch, or by
// whatever woke this sender — can append theirs, but only when another
// sender may be about to: the socket's previous write carried more than
// one frame, or answers are owed to other requests on it. A lone
// sender writes at once.
//
// The read side has an owner too, but only while answers are owed: a
// caller waiting for its answer that finds nobody reading reads the
// socket itself, handing every answer it meets to its stream's oldest
// waiter, until its own has come. If answers are still owed when it
// leaves, it starts a reader goroutine, which reads until nothing is
// owed and then exits — or, like any reader, fails every waiter when the
// socket breaks or Close closes it — so an idle socket owns no
// goroutine. A dead idle socket is found by its next op, which fails
// with ErrUnavailable. The invariants:
//
//   - At most one goroutine reads the socket (reading). While any answer
//     is owed, some goroutine is reading, or the caller that will read is
//     on its way to its wait: owed rises before that caller tries to take
//     the read side, and a reader leaving it re-checks owed after letting
//     go, so one of the two always sees the other.
//   - A reader never writes, so it never waits on the peer: a reader
//     blocked writing to a server whose reader is blocked writing back
//     would wedge both sides.
//   - No goroutine blocks in a socket write that carries frames beyond its
//     own while answers are owed and nobody reads: the server may answer
//     a frame before it has read the ones behind it, and a server blocked
//     writing that answer reads no more of the write. Before such a write
//     the writer makes sure a reader runs. A write of the writer's own
//     frame alone cannot wedge: its answer comes only after all of it has
//     been read.

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

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
	// wire must match each stream's queue order) and guards out, spare,
	// frames, lastFrames and writing. It is never held across a socket
	// write.
	sendMu sync.Mutex
	// out holds the requests no write has taken yet; spare is the other
	// half of the double buffer, nil while a write has it in flight.
	out, spare []byte
	// frames counts the frames (lines, on a JSON socket) in out;
	// lastFrames is how many the socket's latest write carried.
	frames, lastFrames int
	// writing is set while one goroutine owns the socket's write side. The
	// owner writes until out is empty, so a sender that finds it set only
	// appends.
	writing bool

	// owed counts the answers registered on any stream and not yet
	// delivered. reading is set while one goroutine owns the read side;
	// br and frame (the frame reader's buffer) or line (the JSON reader's
	// long-line scratch) belong to that goroutine.
	owed    atomic.Int64
	reading atomic.Bool
	br      *bufio.Reader
	frame   []byte
	line    []byte

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
	return newMux(c, false, hello)
}

// newMux makes a socket's client side in either framing. Nothing reads
// the socket until a request is owed an answer.
func newMux(c net.Conn, json bool, hello byte) *Mux {
	m := &Mux{c: c, json: json, br: bufio.NewReader(c), streams: make(map[uint32]*Conn)}
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
// call, which takes the write side — yielding once first if another
// sender may be about to append — and writes until the buffer is empty.
// Before a write that carries frames beyond its own it makes sure a
// reader runs (ensureReader). A failed write is not reported here: it
// closes the connection — whoever reads next fails every waiter, this
// one's included — and drops what is buffered. The caller then collects
// its answers with await.
func (m *Mux) send(st *Conn, reqs []wire.Request, ch chan result) error {
	m.sendMu.Lock()
	start := len(m.out)
	var err error
	m.out, err = m.appendRequests(m.out, st.stream, reqs)
	var own int
	if err == nil {
		own, err = st.enqueue(reqs, ch)
	}
	if err != nil {
		m.out = m.out[:start]
		m.sendMu.Unlock()
		return err
	}
	if m.json {
		m.frames += len(reqs)
	} else {
		m.frames++
	}
	if m.writing {
		m.sendMu.Unlock()
		return nil
	}
	m.writing = true
	yield := m.lastFrames > 1 || m.owed.Load() > int64(own)
	m.sendMu.Unlock()
	if yield {
		runtime.Gosched()
	}
	m.sendMu.Lock()
	for first := true; len(m.out) > 0; first = false {
		buf, frames := m.out, m.frames
		m.out, m.spare, m.frames, m.lastFrames = m.spare[:0], nil, 0, frames
		m.sendMu.Unlock()
		if !first || frames > 1 {
			m.ensureReader()
		}
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

// ensureReader starts a reader goroutine if answers are owed and nobody
// reads.
func (m *Mux) ensureReader() {
	if m.owed.Load() > 0 && m.reading.CompareAndSwap(false, true) {
		go m.readLoop()
	}
}

// await sees to it that ch gets the n answers the caller just sent for,
// which the caller then receives from ch. If nobody reads the socket, the
// caller reads it here, dispatching every answer it meets until its own
// have come, and on leaving passes the read side on to a reader goroutine
// if answers are still owed. Otherwise whoever reads delivers them.
func (m *Mux) await(ch chan result, n int) {
	if len(ch) >= n || !m.reading.CompareAndSwap(false, true) {
		return
	}
	for len(ch) < n {
		if !m.readOne() {
			return
		}
	}
	if m.owed.Load() > 0 || m.release() {
		go m.readLoop()
	}
}

// release gives up the read side. An answer owed in between its two
// checks would have no reader — the caller it belongs to may have seen
// the side still taken — so it then takes the side back, if nobody else
// has, and reports true: its caller must read on.
func (m *Mux) release() bool {
	m.reading.Store(false)
	return m.owed.Load() > 0 && m.reading.CompareAndSwap(false, true)
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

// readLoop is the reader goroutine: started holding the read side, it
// reads until nothing is owed, then gives the side up and exits.
func (m *Mux) readLoop() {
	for {
		for m.owed.Load() > 0 {
			if !m.readOne() {
				return
			}
		}
		if !m.release() {
			return
		}
	}
}

// readOne reads one binary frame or JSON line, in the holder of the read
// side, and hands each response in it to its stream's oldest waiter.
// Per-stream FIFOs are what keep sibling streams independent: a response
// only ever advances its own stream's queue. A failure breaks the whole
// socket, answering every waiter with it, and gives up the read side:
// readOne then reports false.
func (m *Mux) readOne() bool {
	var err error
	if m.json {
		err = m.readLine()
	} else {
		err = m.readFrame()
	}
	if err != nil {
		m.fail(err)
		m.reading.Store(false)
		return false
	}
	return true
}

// readFrame reads one binary frame, a batch of responses for one stream.
// A frame on the reserved stream 0 carries the server's connection-fatal
// protocol error.
func (m *Mux) readFrame() error {
	id, ops, buf, err := wire.ReadFrame(m.br, m.frame, wire.DefaultMaxFrameBytes)
	m.frame = buf
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
	return nil
}

// readLine reads one newline-JSON response, for the socket's one stream.
// A line longer than the reader's buffer — an error echoing a long name —
// is accumulated.
func (m *Mux) readLine() error {
	line, err := m.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		m.line = append(m.line[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = m.br.ReadSlice('\n')
			m.line = append(m.line, line...)
		}
		line = m.line
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
	return nil
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
