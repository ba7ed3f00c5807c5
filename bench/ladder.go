package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// The layer ladder is the traced run. One goroutine, one operation in
// flight, the same acquire+release cycle timed at every cut of the stack,
// each rung one level higher than the one before. Every cycle is a span
// recorded from here, around the call into that layer's public entry
// point; on the tcp rung a recording listener adds the server's share of
// each operation as a child span. A layer's self time is its rung minus
// the rung below it.

// Ladder sizes at time scale 1.
const (
	ladderCycles  = 20000
	ladderWarm    = 2000
	ladderBatches = 10
	ladderKeys    = 1024
	// journal-fsync measures the sandbox's disk; it runs a tenth of the
	// cycles and is informational.
	fsyncDivisor = 10
)

var rungNames = []string{
	"core", "lockmgr", "lease", "journal", "journal-fsync",
	"tcp", "tcp-json", "tcp-leased", "cluster-direct", "cluster-proxy",
}

// ladderLayer lists the ladder's metrics: a cycle time and an allocation
// count per rung, and the self times derived from them.
func ladderLayer() []metricDef {
	var defs []metricDef
	for _, r := range rungNames {
		defs = append(defs,
			metricDef{Name: "ladder." + r + ".cycle_ns", Unit: "ns", Better: "lower"},
			metricDef{Name: "ladder." + r + ".allocs_per_cycle", Unit: "count", Better: "lower"})
	}
	for _, n := range []string{
		"session.handle_ns", "core.self_ns", "lockmgr.self_ns", "lease.self_ns", "journal.self_ns",
		"session.self_ns", "transport.self_ns", "codec.json_extra_ns", "cluster.direct_extra_ns", "proxy.hop_ns",
	} {
		defs = append(defs, metricDef{Name: n, Unit: "ns", Better: "lower"})
	}
	return append(defs, metricDef{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"})
}

// span is one timed interval of one cycle. Spans of one cycle share its
// ID; Parent names the layer of the span that caused this one ("" for the
// cycle's root span).
type span struct {
	ID         int64
	Layer      string
	Start, End int64 // ns since the ladder began
	Parent     string
}

// tracer keeps the spans in memory until the ladder ends.
type tracer struct {
	base  time.Time
	spans []span
	next  int64
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// dump writes the spans as a JSON array, one span a line.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.WriteString("[\n")
	var buf []byte
	for i, s := range t.spans {
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ",\n"...)
		}
		buf = append(buf, `{"id":`...)
		buf = strconv.AppendInt(buf, s.ID, 10)
		buf = append(buf, `,"layer":`...)
		buf = strconv.AppendQuote(buf, s.Layer)
		buf = append(buf, `,"start_ns":`...)
		buf = strconv.AppendInt(buf, s.Start, 10)
		buf = append(buf, `,"end_ns":`...)
		buf = strconv.AppendInt(buf, s.End, 10)
		buf = append(buf, `,"parent":`...)
		buf = strconv.AppendQuote(buf, s.Parent)
		buf = append(buf, '}')
		w.Write(buf)
	}
	w.WriteString("\n]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// variant is one rung's cycle, or one way of running it: tcp runs against
// a recording and against a plain listener.
type variant struct {
	layer string
	cycle func(i int) error
	// cycles is how many timed cycles the variant runs, over all batches;
	// rewarm how many untimed ones it runs ahead of each batch, which the
	// in-process rungs need: the batches of all rungs are interleaved, and
	// a rung that costs a microsecond would otherwise time the cache
	// misses the rung before it left behind.
	cycles, rewarm int
	// before, when set, runs ahead of cycle i, outside its span.
	before func(i int) error
	// rec, when set, is the recording listener whose server-side stamps
	// become child spans of this variant's cycles.
	rec *recorder
}

// rungResult is one variant's measurement.
type rungResult struct {
	cycleNs, allocs float64
	batchMeans      []float64
	handleNs        float64 // server-side share per cycle (recorded variants)
}

// run warms every variant, then times ladderBatches batches of each, the
// variants taking turns batch by batch: this sandbox's speed wanders over
// seconds, and rungs measured one after the other would each see a
// different machine, while interleaved they all see the same mix. A
// variant's cycle time is the median of its batch means.
func (t *tracer) run(variants []variant, warm int) (map[string]rungResult, error) {
	cyc := func(v variant, i int) error {
		if v.before != nil {
			if err := v.before(i); err != nil {
				return err
			}
		}
		return v.cycle(i)
	}
	for _, v := range variants {
		for i := 0; i < warm; i++ {
			if err := cyc(v, i); err != nil {
				return nil, fmt.Errorf("%s: warm-up cycle: %w", v.layer, err)
			}
		}
	}
	out := map[string]rungResult{}
	var m0, m1 runtime.MemStats
	mallocs := map[string]uint64{}
	handle := map[string][]float64{}
	next := make([]int, len(variants)) // each variant's cycle counter
	for i := range next {
		next[i] = warm
	}
	for b := 0; b < ladderBatches; b++ {
		for vi, v := range variants {
			per := max(v.cycles/ladderBatches, 1)
			for j := 0; j < v.rewarm; j++ {
				if err := cyc(v, next[vi]); err != nil {
					return nil, fmt.Errorf("%s: re-warming cycle: %w", v.layer, err)
				}
				next[vi]++
			}
			if v.rec != nil {
				v.rec.reset(2 * per)
			}
			first := len(t.spans)
			runtime.ReadMemStats(&m0)
			var sum int64
			for j := 0; j < per; j++ {
				if v.before != nil {
					if err := v.before(next[vi]); err != nil {
						return nil, fmt.Errorf("%s: preparing a cycle: %w", v.layer, err)
					}
				}
				start := t.now()
				if err := v.cycle(next[vi]); err != nil {
					return nil, fmt.Errorf("%s: cycle: %w", v.layer, err)
				}
				end := t.now()
				next[vi]++
				t.next++
				t.spans = append(t.spans, span{ID: t.next, Layer: v.layer, Start: start, End: end})
				sum += end - start
			}
			runtime.ReadMemStats(&m1)
			mallocs[v.layer] += m1.Mallocs - m0.Mallocs
			r := out[v.layer]
			r.batchMeans = append(r.batchMeans, float64(sum)/float64(per))
			out[v.layer] = r
			if v.rec != nil {
				h, err := t.childSpans(v, first, per)
				if err != nil {
					return nil, err
				}
				handle[v.layer] = append(handle[v.layer], h)
			}
		}
	}
	for _, v := range variants {
		r := out[v.layer]
		r.cycleNs = median(r.batchMeans)
		r.allocs = float64(mallocs[v.layer]) / float64(max(v.cycles/ladderBatches, 1)*ladderBatches)
		r.handleNs = median(handle[v.layer])
		out[v.layer] = r
	}
	return out, nil
}

// childSpans turns the recorder's stamps for one batch into session.handle
// spans under the batch's cycle spans, and returns the mean server-side
// time per cycle. With one operation in flight every request is one
// server Read and every response one server Write, so a cycle of two
// operations owns two consecutive (read, write) pairs.
func (t *tracer) childSpans(v variant, first, per int) (float64, error) {
	reads, writes := v.rec.take()
	if len(reads) != 2*per || len(writes) != 2*per {
		return 0, fmt.Errorf("%s: recording listener saw %d reads and %d writes for %d operations",
			v.layer, len(reads), len(writes), 2*per)
	}
	var sum int64
	for j := 0; j < per; j++ {
		id := t.spans[first+j].ID
		for k := 2 * j; k < 2*j+2; k++ {
			t.spans = append(t.spans, span{ID: id, Layer: "session.handle", Start: reads[k], End: writes[k], Parent: v.layer})
			sum += writes[k] - reads[k]
		}
	}
	return float64(sum) / float64(per), nil
}

// recorder is the span-recording listener's memory: when each server-side
// Read returned data and when each Write was called, in ns on the
// tracer's clock.
type recorder struct {
	t      *tracer
	mu     sync.Mutex
	on     bool
	reads  []int64
	writes []int64
}

func (r *recorder) reset(n int) {
	r.mu.Lock()
	r.on = true
	r.reads = make([]int64, 0, n)
	r.writes = make([]int64, 0, n)
	r.mu.Unlock()
}

func (r *recorder) take() (reads, writes []int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.on = false
	return r.reads, r.writes
}

type recListener struct {
	net.Listener
	r *recorder
}

func (l recListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return recConn{Conn: c, r: l.r}, nil
}

type recConn struct {
	net.Conn
	r *recorder
}

func (c recConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		now := c.r.t.now()
		c.r.mu.Lock()
		if c.r.on {
			c.r.reads = append(c.r.reads, now)
		}
		c.r.mu.Unlock()
	}
	return n, err
}

func (c recConn) Write(p []byte) (int, error) {
	now := c.r.t.now()
	c.r.mu.Lock()
	if c.r.on {
		c.r.writes = append(c.r.writes, now)
	}
	c.r.mu.Unlock()
	return c.Conn.Write(p)
}

// ladderResult is what the ladder reports.
type ladderResult struct {
	metrics map[string]metric
	spans   int
}

// runLadder sets every rung up, runs them interleaved at the given time
// scale, and derives the self times. Journals live under tmp.
func runLadder(scale float64, tmp string) (_ *ladderResult, _ *tracer, err error) {
	cycles := max(int(ladderCycles*scale), ladderBatches)
	// However short the run, warm-up passes over every key once: a rung
	// must time resident locks, not their creation.
	warm := max(int(ladderWarm*scale), ladderKeys)
	t := &tracer{base: time.Now()}
	t.spans = make([]span, 0, cycles*(len(rungNames)+3))
	names := keyNames("ladder", ladderKeys)
	ctx := context.Background()

	var variants []variant
	var closers []func() error
	defer func() {
		for _, c := range closers {
			err = errors.Join(err, c())
		}
	}()

	// core: the root package's RMWLock, one lock per key so the rung walks
	// as much memory as the lockmgr rung above it.
	locks := make([]*coreLock, ladderKeys)
	for i := range locks {
		if locks[i], err = newCoreLock(8); err != nil {
			return nil, nil, err
		}
	}
	variants = append(variants, variant{layer: "core", cycles: cycles, rewarm: ladderKeys,
		cycle: func(i int) error { return locks[i%ladderKeys].cycle() }})

	// lockmgr, lease, journal, journal-fsync: the in-process stack, one
	// layer more each time.
	for _, r := range []struct {
		layer          string
		ttl            time.Duration
		journal, fsync string
		cycles, rewarm int
	}{
		{"lockmgr", 0, "", "", cycles, ladderKeys},
		{"lease", leaseTTL, "", "", cycles, ladderKeys},
		{"journal", leaseTTL, "journal", "off", cycles, ladderKeys},
		{"journal-fsync", leaseTTL, "journal-fsync", "always", max(cycles/fsyncDivisor, ladderBatches), 0},
	} {
		dir := ""
		if r.journal != "" {
			if dir, err = os.MkdirTemp(tmp, r.journal+"-"); err != nil {
				return nil, nil, err
			}
		}
		st, err := newInprocStack(r.ttl, dir, r.fsync)
		if err != nil {
			return nil, nil, err
		}
		closers = append(closers, func() error {
			defer st.Close()
			if v := st.Stats().Violations; v != 0 {
				return fmt.Errorf("%s rung: %d mutual-exclusion violations", r.layer, v)
			}
			return nil
		})
		cycle := func(i int) error { return st.leaseCycle(ctx, names[i%ladderKeys]) }
		if r.ttl == 0 {
			cycle = func(i int) error { return st.lockmgrCycle(ctx, names[i%ladderKeys]) }
		}
		variants = append(variants, variant{layer: r.layer, cycles: r.cycles, rewarm: r.rewarm, cycle: cycle})
	}

	// tcp: an in-process server on loopback, once behind the recording
	// listener and once behind a plain one; then over JSON, and with leases.
	rec := &recorder{t: t}
	for _, r := range []struct {
		layer, proto string
		opts         serverOpts
		rec          *recorder
	}{
		{"tcp", "binary", serverOpts{wrap: func(l net.Listener) net.Listener { return recListener{l, rec} }}, rec},
		{"tcp-plain", "binary", serverOpts{}, nil},
		{"tcp-json", "json", serverOpts{}, nil},
		{"tcp-leased", "binary", serverOpts{leaseTTL: leaseTTL}, nil},
	} {
		rung, err := newTCPRung(r.opts, r.proto, names)
		if err != nil {
			return nil, nil, err
		}
		closers = append(closers, rung.close)
		variants = append(variants, variant{layer: r.layer, cycles: cycles, cycle: rung.cycle, rec: r.rec})
	}

	// cluster-direct and cluster-proxy: two in-process nodes with proxy
	// mode on, every key owned by the first; the client talks to the owner
	// (direct) or to the other node (proxy).
	cl, err := newClusterRung(len(names))
	if err != nil {
		return nil, nil, err
	}
	closers = append(closers, cl.close)
	variants = append(variants, cl.variantVia("cluster-direct", 0, cycles), cl.variantVia("cluster-proxy", 1, cycles))

	res, err := t.run(variants, warm)
	if err != nil {
		return nil, nil, err
	}

	m := map[string]metric{}
	for _, r := range rungNames {
		m["ladder."+r+".cycle_ns"] = metric{Value: res[r].cycleNs, Unit: "ns", Slices: res[r].batchMeans}
		m["ladder."+r+".allocs_per_cycle"] = metric{Value: res[r].allocs, Unit: "count"}
	}
	ns := func(name string, v float64) { m[name] = metric{Value: v, Unit: "ns"} }
	c := func(r string) float64 { return res[r].cycleNs }
	handle := res["tcp"].handleNs
	ns("session.handle_ns", handle)
	ns("core.self_ns", c("core"))
	ns("lockmgr.self_ns", c("lockmgr")-c("core"))
	ns("lease.self_ns", c("lease")-c("lockmgr"))
	ns("journal.self_ns", c("journal")-c("lease"))
	ns("session.self_ns", handle-c("lockmgr"))
	ns("transport.self_ns", c("tcp")-handle)
	ns("codec.json_extra_ns", c("tcp-json")-c("tcp"))
	ns("cluster.direct_extra_ns", c("cluster-direct")-c("tcp-leased"))
	ns("proxy.hop_ns", c("cluster-proxy")-c("cluster-direct"))
	m["trace.overhead_frac"] = metric{Value: c("tcp")/c("tcp-plain") - 1, Unit: "ratio"}
	return &ladderResult{metrics: m, spans: len(t.spans)}, t, nil
}

// tcpRung is one in-process server with one client session on it.
type tcpRung struct {
	srv   *localServer
	cl    *lockClient
	s     session
	names []string
}

func newTCPRung(o serverOpts, proto string, names []string) (*tcpRung, error) {
	srv, err := startLocalServer(o)
	if err != nil {
		return nil, err
	}
	r := &tcpRung{srv: srv, names: names}
	if r.cl, err = dialLockd(srv.addr, proto, 1); err == nil {
		r.s, err = r.cl.Open()
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *tcpRung) cycle(i int) error {
	name := r.names[i%len(r.names)]
	if err := r.s.Acquire(name); err != nil {
		return err
	}
	return r.s.Release(name)
}

func (r *tcpRung) close() error {
	var err error
	if r.cl != nil {
		err = r.cl.Close()
	}
	if v := r.srv.violations(); v != 0 {
		err = errors.Join(err, fmt.Errorf("tcp rung: %d mutual-exclusion violations", v))
	}
	return errors.Join(err, r.srv.stop())
}

// clusterRung is two clustered in-process servers, the keys the first one
// owns, and one client per node.
type clusterRung struct {
	nodes   [2]*localServer
	keys    []string
	clients [2]*lockClient
	s       [2]session
}

func newClusterRung(nkeys int) (*clusterRung, error) {
	r := &clusterRung{}
	var seeds []string
	for i := range r.nodes {
		n, err := startLocalServer(serverOpts{leaseTTL: leaseTTL, nodeID: fmt.Sprintf("n%d", i), seeds: seeds, proxy: true})
		if err != nil {
			r.close()
			return nil, err
		}
		r.nodes[i] = n
		seeds = append(seeds, n.gossipAddr())
	}
	deadline := time.Now().Add(10 * time.Second)
	for r.nodes[0].aliveMembers() < 2 || r.nodes[1].aliveMembers() < 2 {
		if time.Now().After(deadline) {
			r.close()
			return nil, fmt.Errorf("cluster rung: the two nodes did not see each other within 10s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i := 0; len(r.keys) < nkeys; i++ {
		if key := fmt.Sprintf("ladder/c%06d", i); r.nodes[0].owns(key) {
			r.keys = append(r.keys, key)
		}
	}
	return r, nil
}

// variantVia is the rung of a client connected to node via. The client
// learns a key's owner from the first proxied answer and would go direct
// from then on, so the session is re-dialed once per pass over the keys —
// ahead of the timed span — and every proxied cycle is a first touch. The
// direct rung re-dials the same way, to differ only in the hop.
func (r *clusterRung) variantVia(layer string, via, cycles int) variant {
	return variant{
		layer: layer, cycles: cycles,
		before: func(i int) error {
			if i%len(r.keys) != 0 && r.s[via] != nil {
				return nil
			}
			return r.redial(via)
		},
		cycle: func(i int) error {
			key := r.keys[i%len(r.keys)]
			if err := r.s[via].Acquire(key); err != nil {
				return err
			}
			return r.s[via].Release(key)
		},
	}
}

func (r *clusterRung) redial(via int) error {
	if r.clients[via] != nil {
		r.clients[via].Close()
	}
	var err error
	if r.clients[via], err = dialLockd(r.nodes[via].addr, "binary", 1); err == nil {
		r.s[via], err = r.clients[via].Open()
	}
	return err
}

func (r *clusterRung) close() error {
	var err error
	for _, cl := range r.clients {
		if cl != nil {
			err = errors.Join(err, cl.Close())
		}
	}
	for _, n := range r.nodes {
		if n == nil {
			continue
		}
		if v := n.violations(); v != 0 {
			err = errors.Join(err, fmt.Errorf("cluster rung: %d mutual-exclusion violations", v))
		}
		err = errors.Join(err, n.stop())
	}
	return err
}
