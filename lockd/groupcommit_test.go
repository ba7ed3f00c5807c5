package lockd

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"anonmutex/internal/lockmgr"
	"anonmutex/lockd/client"
)

// TestFsyncAlwaysGroupCommitSpansSocket: with the journal fsyncing before
// it acknowledges, a grant waits for the disk, so it can block and must
// run on its stream's goroutine — were the frame reader to run the
// grants of one socket itself it would take them one at a time, one
// fsync each. Eight streams of one socket cycle concurrently; every
// acquire is one commit, and the fsyncs the journal's committers issued
// must number fewer than the commits.
//
// The test runs on four scheduler threads whatever the suite runs on:
// commits can only share an fsync if they overlap in time, and on one
// thread an fsync shorter than the runtime's syscall-retake period never
// yields it, so nothing overlaps whatever the server does.
func TestFsyncAlwaysGroupCommitSpansSocket(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	mgr, err := lockmgr.New(lockmgr.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	srv := NewServer(mgr)
	srv.LeaseTTL = 30 * time.Second
	srv.Durability = Durability{Dir: t.TempDir(), Fsync: "always"}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	m, err := client.DialMux(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	const streams, cycles = 8, 50
	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		c, err := m.Open()
		if err != nil {
			t.Fatal(err)
		}
		key := fmt.Sprintf("k%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < cycles; n++ {
				if err := c.Acquire(key); err != nil {
					t.Error(err)
					return
				}
				if err := c.Release(key); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	srv.mu.Lock()
	jn := srv.journal
	srv.mu.Unlock()
	if syncs := jn.CommitSyncs(); syncs >= streams*cycles {
		t.Errorf("%d fsyncs for %d grants committed from %d streams of one socket: no commit shared one", syncs, streams*cycles, streams)
	} else {
		t.Logf("%d fsyncs for %d grants", syncs, streams*cycles)
	}
}
