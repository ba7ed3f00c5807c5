// Hot-path benchmarks for the lockd service: full client→server→client
// round trips on an in-memory transport (net.Pipe — isolates the lockd
// stack from kernel TCP costs) and on real loopback TCP. An ad-hoc tool:
// nothing records or gates on these (bench/ does that); run with
//
//	go test -bench 'RoundTrip' -benchmem ./lockd
package lockd_test

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"anonmutex/internal/lockmgr"
	"anonmutex/lockd"
	"anonmutex/lockd/client"
	"anonmutex/lockd/wire"
)

// pipeListener adapts a stream of pre-connected net.Pipe ends to the
// net.Listener surface Server.Serve wants.
func benchCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 5*time.Second)
}

type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	select {
	case <-l.done:
	default:
		close(l.done)
	}
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// benchPipeClient starts a server over an in-memory transport and returns
// a connected client session.
func benchPipeClient(b *testing.B) *client.Conn {
	b.Helper()
	mgr, err := lockmgr.New(lockmgr.Config{})
	if err != nil {
		b.Fatal(err)
	}
	srv := lockd.NewServer(mgr)
	ln := newPipeListener()
	go srv.Serve(ln)
	cs, ss := net.Pipe()
	ln.conns <- ss
	conn := client.NewConn(cs)
	b.Cleanup(func() {
		conn.Close()
		ctx, cancel := benchCtx()
		defer cancel()
		srv.Shutdown(ctx)
	})
	return conn
}

// benchTCPClient starts a server on loopback TCP and returns a connected
// client session.
func benchTCPClient(b *testing.B) *client.Conn {
	b.Helper()
	mgr, err := lockmgr.New(lockmgr.Config{})
	if err != nil {
		b.Fatal(err)
	}
	srv := lockd.NewServer(mgr)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	conn, err := client.DialConn(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		conn.Close()
		ctx, cancel := benchCtx()
		defer cancel()
		srv.Shutdown(ctx)
	})
	return conn
}

func benchRoundTrips(b *testing.B, conn *client.Conn) {
	b.Run("ping", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := conn.Ping(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("acquire-release", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := conn.Acquire("bench-key"); err != nil {
				b.Fatal(err)
			}
			if err := conn.Release("bench-key"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("acquirefor-release", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ok, err := conn.AcquireFor("bench-key", time.Second)
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				b.Fatal("uncontended AcquireFor failed")
			}
			if err := conn.Release("bench-key"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch-acquire-release", func(b *testing.B) {
		reqs := []wire.Request{
			{Op: wire.OpAcquire, Name: "bench-key"},
			{Op: wire.OpRelease, Name: "bench-key"},
		}
		resps := make([]wire.Response, len(reqs))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := conn.Batch(reqs, resps); err != nil {
				b.Fatal(err)
			}
			if !resps[0].Acquired || !resps[1].OK {
				b.Fatalf("batch: %+v", resps)
			}
		}
	})
	b.Run("holds", func(b *testing.B) {
		if err := conn.Acquire("bench-key"); err != nil {
			b.Fatal(err)
		}
		defer conn.Release("bench-key")
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			held, err := conn.Holds("bench-key")
			if err != nil {
				b.Fatal(err)
			}
			if !held {
				b.Fatal("holds = false for a held lock")
			}
		}
	})
}

// BenchmarkRoundTrip_Pipe is the uncontended single-client lockd round
// trip over an in-memory transport: the latency of the lockd stack itself
// (codec, session loop, lock manager) with no kernel networking.
func BenchmarkRoundTrip_Pipe(b *testing.B) {
	benchRoundTrips(b, benchPipeClient(b))
}

// BenchmarkRoundTrip_TCP is the same round trip over real loopback TCP.
func BenchmarkRoundTrip_TCP(b *testing.B) {
	benchRoundTrips(b, benchTCPClient(b))
}

// benchPipeMuxStream starts a server over an in-memory transport and
// returns one logical stream of a binary-protocol mux.
func benchPipeMuxStream(b *testing.B) *client.Conn {
	b.Helper()
	mgr, err := lockmgr.New(lockmgr.Config{})
	if err != nil {
		b.Fatal(err)
	}
	srv := lockd.NewServer(mgr)
	ln := newPipeListener()
	go srv.Serve(ln)
	cs, ss := net.Pipe()
	ln.conns <- ss
	mux := client.NewMux(cs, 0)
	st, err := mux.Open()
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		mux.Close()
		ctx, cancel := benchCtx()
		defer cancel()
		srv.Shutdown(ctx)
	})
	return st
}

// benchTCPMux starts a server on loopback TCP and returns a connected
// binary-protocol mux.
func benchTCPMux(b *testing.B) *client.Mux {
	b.Helper()
	mgr, err := lockmgr.New(lockmgr.Config{})
	if err != nil {
		b.Fatal(err)
	}
	srv := lockd.NewServer(mgr)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	mux, err := client.DialMux(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		mux.Close()
		ctx, cancel := benchCtx()
		defer cancel()
		srv.Shutdown(ctx)
	})
	return mux
}

// BenchmarkRoundTrip_PipeBinary is the binary-transport counterpart of
// BenchmarkRoundTrip_Pipe: the same logical round trips carried as
// length-prefixed frames over one mux stream. The delta against the
// JSON rows is the pure codec+framing win.
func BenchmarkRoundTrip_PipeBinary(b *testing.B) {
	benchRoundTrips(b, benchPipeMuxStream(b))
}

// BenchmarkRoundTrip_TCPBinary is the binary round trip over real
// loopback TCP — the headline uncontended acquire+release number for
// the multiplexed transport.
func BenchmarkRoundTrip_TCPBinary(b *testing.B) {
	mux := benchTCPMux(b)
	st, err := mux.Open()
	if err != nil {
		b.Fatal(err)
	}
	benchRoundTrips(b, st)
}

// BenchmarkMux_TCPStreams drives N logical streams over ONE TCP socket,
// each goroutine doing uncontended acquire+release on its own key: the
// multiplexing payoff — frame batching amortizes syscalls across
// streams, so aggregate throughput rises while the socket count stays
// at one.
func BenchmarkMux_TCPStreams(b *testing.B) {
	for _, streams := range []int{4, 16} {
		b.Run(fmt.Sprintf("streams=%d", streams), func(b *testing.B) {
			mux := benchTCPMux(b)
			var next atomic.Int32
			b.ReportAllocs()
			b.SetParallelism(streams)
			b.RunParallel(func(pb *testing.PB) {
				st, err := mux.Open()
				if err != nil {
					b.Fatal(err)
				}
				defer st.Close()
				key := fmt.Sprintf("bench-key-%d", next.Add(1))
				for pb.Next() {
					if err := st.Acquire(key); err != nil {
						b.Fatal(err)
					}
					if err := st.Release(key); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkRoundTrip_PipeParallel drives one pipelined session from many
// goroutines, exercising response batching and flush coalescing.
func BenchmarkRoundTrip_PipeParallel(b *testing.B) {
	for _, clients := range []int{4, 16} {
		b.Run(fmt.Sprintf("goroutines=%d", clients), func(b *testing.B) {
			conn := benchPipeClient(b)
			b.ReportAllocs()
			b.SetParallelism(clients)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if err := conn.Ping(); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
