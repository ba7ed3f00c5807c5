package main

// The real-process cases: each starts its own anonlockd children on
// ephemeral loopback ports and drives them with anonload or a
// lockd/client session, so what they check is what a deployment runs —
// signals, kill -9, the startup lines, the JSON a script reads.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"anonmutex/internal/stats"
	"anonmutex/lockd/client"
)

// bin holds the binaries TestMain builds once for every case.
var bin struct{ lockd, load string }

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "anonlockd-process-")
	var out []byte
	if err == nil {
		out, err = exec.Command("go", "build", "-o", dir, "anonmutex/cmd/anonlockd", "anonmutex/cmd/anonload").CombinedOutput()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "building anonlockd and anonload: %v\n%s", err, out)
		os.Exit(1)
	}
	bin.lockd, bin.load = filepath.Join(dir, "anonlockd"), filepath.Join(dir, "anonload")
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// patience bounds every wait on a child: a line it should print, an
// exit it should make, a counter it should reach.
const patience = 15 * time.Second

// Traffic the cases share. crashMix is the open-loop zipf load whose
// tenth of crash ops leaves holders that only lease expiry frees; six
// of its eight clients' seeded op streams draw a crash within their
// first ten ops, so even a one-second phase crashes many.
const (
	overload = `{"seed":7,"base_cs":5000,"keys":{"dist":"zipf","zipf_s":1.2},` +
		`"arrival":{"process":"poisson","rate_per_sec":200000,"max_backlog":64},"ops":{"timed":1,"timeout_ms":2}}`
	crashMix = `{"seed":11,"keys":{"dist":"zipf","zipf_s":1.1},` +
		`"arrival":{"process":"poisson","rate_per_sec":500,"max_backlog":64},"ops":{"lock":0.9,"crash":0.1}}`
)

// TestProcess runs the real-process cases in parallel.
func TestProcess(t *testing.T) {
	cases := map[string]func(t *testing.T){
		"drain": func(t *testing.T) {
			d := startDaemon(t, "-handles", "2")
			d.terminate(t)
			d.waitFor(t, `^anonlockd: terminated, draining$`)
			d.waitFor(t, `^== lockmgr — 16 shards, alg=rmw, n=2/lock`)
			d.waitFor(t, `^shard +locks +acquires`)
		},
		"session": func(t *testing.T) {
			c := dial(t, startDaemon(t, "-handles", "2").addr)
			if err := c.Acquire("k"); err != nil {
				t.Fatal(err)
			}
			if err := c.Release("k"); err != nil {
				t.Fatal(err)
			}
			if st, err := c.Stats(); err != nil || st.Acquires != 1 || st.Violations != 0 {
				t.Errorf("stats = %+v, %v", st, err)
			}
		},
		// A key held and released, a drain, a start on the same journal:
		// the release was journaled, so there is nothing to recover.
		"graceful-restart": func(t *testing.T) {
			dir := t.TempDir()
			for range 2 {
				d := startDaemon(t, "-handles", "2", "-lease-ttl", "2s", "-data-dir", dir)
				if n := d.recovered(t); n != 0 {
					t.Errorf("recovered %d leases after a graceful stop, want 0", n)
				}
				c := dial(t, d.addr)
				if err := c.Acquire("dk"); err != nil {
					t.Fatal(err)
				}
				if c.Token("dk") == 0 {
					t.Fatal("no fencing token from the durable daemon")
				}
				if err := c.Release("dk"); err != nil {
					t.Fatal(err)
				}
				c.Close() // an open session would hold the drain for its whole window
				d.terminate(t)
			}
		},
		"deadline": func(t *testing.T) {
			d := startDaemon(t)
			r := load(t, "-addr", d.addr, "-clients", "16", "-keys", "4", "-duration", "1s",
				"-workload", `{"base_cs":2000,"base_remainder":1,"ops":{"timed":1,"timeout_ms":5}}`)
			r.zero(t, "LOAD", "violations")
			r.positive(t, "LOAD", "aborts")
		},
		"open-loop/json":        openLoop(),
		"open-loop/binary-mux8": openLoop("-proto", "binary", "-mux", "8"),
		"chaos": func(t *testing.T) {
			d := startDaemon(t, "-lease-ttl", "300ms")
			// A victim fleet takes locks, then dies by SIGKILL mid-run: its
			// sockets vanish without a single release, and the server's
			// teardown must reap every grant.
			victim := start(t, bin.load, "-addr", d.addr, "-heartbeat", "75ms", "-clients", "8", "-keys", "8", "-duration", "30s")
			waitAcquires(t, []string{d.addr}, 100)
			victim.kill()
			// Crashed holders keep their sockets open, so only lease expiry
			// recovers their keys — and the run must stay violation-free.
			r := load(t, "-addr", d.addr, "-heartbeat", "75ms", "-clients", "8", "-keys", "8", "-duration", "1s",
				"-workload", crashMix)
			r.zero(t, "LOAD", "violations")
			r.zero(t, "LOAD-BACKEND", "violations")
			r.positive(t, "LOAD-BACKEND", "expired")
			// Every key must be acquirable within 2×TTL of the crashes
			// stopping: an orphan that outlived its lease aborts the probe.
			p := load(t, "-addr", d.addr, "-heartbeat", "75ms", "-clients", "8", "-keys", "8", "-cycles", "64",
				"-workload", `{"base_cs":1,"base_remainder":1,"ops":{"timed":1,"timeout_ms":600}}`)
			p.zero(t, "LOAD", "aborts")
			p.zero(t, "LOAD", "violations")
		},
		"failover/redirect": failover(),
		"failover/proxy":    failover("-proxy"),
		"restart": func(t *testing.T) {
			dir := t.TempDir()
			a := startDaemon(t, "-lease-ttl", "1s", "-data-dir", dir)
			// The holder acquires and then sits on its socket: when the
			// server dies under it, no release was ever sent and the
			// journal still owes those grants.
			holder := dial(t, a.addr)
			pre := make(map[string]uint64)
			for i := range 4 {
				k := fmt.Sprintf("rk-%d", i)
				if err := holder.Acquire(k); err != nil {
					t.Fatal(err)
				}
				pre[k] = holder.Token(k)
			}
			a.kill() // no drain, no journal close: the torn tail is real
			b := startDaemon(t, "-lease-ttl", "1s", "-data-dir", dir)
			if n := b.recovered(t); n < len(pre) {
				t.Errorf("recovered %d leases, want at least %d", n, len(pre))
			}
			// The dead holder never heartbeats again, so each key frees on
			// its original TTL schedule, under a strictly larger token.
			c := dial(t, b.addr)
			for k, before := range pre {
				ok, err := c.AcquireFor(k, patience)
				if err != nil || !ok {
					t.Fatalf("%s after the restart: acquired=%v err=%v", k, ok, err)
				}
				if after := c.Token(k); after <= before {
					t.Errorf("%s: post-restart token %d not above pre-crash %d", k, after, before)
				}
				if err := c.Release(k); err != nil {
					t.Fatal(err)
				}
			}
			if st, err := c.Stats(); err != nil || st.Violations != 0 {
				t.Errorf("stats = %+v, %v", st, err)
			}
		},
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			body(t)
		})
	}
}

// openLoop offers far more than a server serves: deadlines must abort
// and the report must show offered above achieved.
func openLoop(transport ...string) func(t *testing.T) {
	return func(t *testing.T) {
		d := startDaemon(t)
		args := []string{"-addr", d.addr, "-clients", "16", "-keys", "8", "-duration", "1s", "-workload", overload}
		r := load(t, append(args, transport...)...)
		r.zero(t, "LOAD", "violations")
		r.positive(t, "LOAD", "aborts")
		if offered, achieved := r.cell(t, "LOAD", "offered/s"), r.cell(t, "LOAD", "cycles/s"); offered <= achieved {
			t.Errorf("offered %.0f/s, achieved %.0f/s: the open loop must report offered above achieved", offered, achieved)
		}
	}
}

// failover kills one of three nodes under crash-mix load through the
// cluster-routed client. Grants lost with the dead node are tolerated
// and counted; exclusion is judged by the survivors' counters, and
// once both survivors declare the dead node dead, every key — its keys
// included — must be acquirable from its new owner.
func failover(mode ...string) func(t *testing.T) {
	return func(t *testing.T) {
		var ids, addrs, gossip []string
		var ds []*child
		for i := range 3 {
			ids = append(ids, fmt.Sprintf("n%d", i))
			args := append([]string{"-lease-ttl", "300ms", "-gossip-interval", "50ms",
				"-node-id", ids[i], "-gossip-addr", "127.0.0.1:0"}, mode...)
			if i > 0 {
				args = append(args, "-join", strings.Join(gossip, ","))
			}
			d := startDaemon(t, args...)
			ds, addrs = append(ds, d), append(addrs, d.addr)
			gossip = append(gossip, d.waitFor(t, `gossiping on (\S+)`)[1])
		}
		for i, d := range ds {
			for j, id := range ids {
				if j != i {
					d.waitFor(t, `member `+id+` \(\S+\) joined`)
				}
			}
		}
		run := start(t, bin.load, "-json", "-addr", strings.Join(addrs, ","), "-heartbeat", "75ms", "-clients", "8", "-keys", "8",
			"-duration", "1500ms", "-workload", crashMix, "-tolerate-grant-loss")
		// The victim is whichever node is granting: it owns live keys.
		v := waitAcquires(t, addrs, 20)
		ds[v].kill()
		r := resultsOf(t, run)
		r.zero(t, "LOAD", "violations")
		r.positive(t, "LOAD", "cycles")
		r.positive(t, "LOAD-BACKEND", "expired")
		survivors := slices.Delete(slices.Clone(addrs), v, v+1)
		for i, d := range ds {
			if i != v {
				d.waitFor(t, `member `+ids[v]+` \(\S+\) dead`)
			}
		}
		p := load(t, "-addr", strings.Join(survivors, ","), "-heartbeat", "75ms", "-clients", "8", "-keys", "8",
			"-cycles", "64", "-workload", `{"base_cs":1,"base_remainder":1,"ops":{"timed":1,"timeout_ms":2000}}`, "-tolerate-grant-loss")
		p.zero(t, "LOAD", "aborts")
		p.zero(t, "LOAD", "violations")
	}
}

// child is one process a case started. Whatever the case does, the
// child is killed and reaped when the case ends, and a failed case
// logs everything the child printed.
type child struct {
	cmd            *exec.Cmd
	stdout, stderr output
	exited         chan struct{} // closed once the process is reaped and its output read
	err            error         // the exit status, set before exited closes
	addr           string        // the address an anonlockd child announced
}

func start(t *testing.T, path string, args ...string) *child {
	t.Helper()
	c := &child{cmd: exec.Command(path, args...), exited: make(chan struct{})}
	c.cmd.Stdout, c.cmd.Stderr = &c.stdout, &c.stderr
	if err := c.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		c.err = c.cmd.Wait()
		close(c.exited)
	}()
	t.Cleanup(func() {
		c.kill()
		if t.Failed() {
			t.Logf("%s:\n%s%s", c.cmd, &c.stdout, &c.stderr)
		}
	})
	return c
}

// kill is kill -9: no drain, no journal close.
func (c *child) kill() {
	c.cmd.Process.Kill()
	<-c.exited
}

// waitFor returns the submatches of the first stdout line matching
// pattern, failing the case if the child exits or patience runs out
// first.
func (c *child) waitFor(t *testing.T, pattern string) []string {
	t.Helper()
	re := regexp.MustCompile("(?m)" + pattern)
	for deadline := time.Now().Add(patience); ; time.Sleep(5 * time.Millisecond) {
		exited := false
		select {
		case <-c.exited: // checked first: after it, the output is complete
			exited = true
		default:
		}
		if m := re.FindStringSubmatch(c.stdout.String()); m != nil {
			return m
		}
		if exited || time.Now().After(deadline) {
			t.Fatalf("no line matching %q from %s", pattern, c.cmd)
		}
	}
}

// output is a child's stream, readable while the child writes it.
type output struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (o *output) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.b.Write(p)
}

func (o *output) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.b.String()
}

// wait fails the case unless the child exits 0 within patience.
func (c *child) wait(t *testing.T) {
	t.Helper()
	select {
	case <-c.exited:
	case <-time.After(patience):
		t.Fatalf("%s still running after %v", c.cmd, patience)
	}
	if c.err != nil {
		t.Fatalf("%s: %v", c.cmd, c.err)
	}
}

// startDaemon starts anonlockd on an ephemeral loopback port and returns
// once it has announced the address.
func startDaemon(t *testing.T, args ...string) *child {
	t.Helper()
	c := start(t, bin.lockd, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	c.addr = c.waitFor(t, `serving on (\S+)`)[1]
	return c
}

// terminate sends SIGTERM and fails unless the drain ends in exit 0.
func (c *child) terminate(t *testing.T) {
	t.Helper()
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	c.wait(t)
}

// recovered reads the lease count a durable daemon prints once its
// journal recovery is final.
func (c *child) recovered(t *testing.T) int {
	t.Helper()
	n, _ := strconv.Atoi(c.waitFor(t, `recovered (\d+) leases`)[1])
	return n
}

// load runs anonload to completion and returns its results.
func load(t *testing.T, args ...string) results {
	t.Helper()
	return resultsOf(t, start(t, bin.load, append([]string{"-json"}, args...)...))
}

// results is anonload's report: its tables by record id.
type results map[string]*stats.Table

// resultsOf waits for an anonload -json child to end and decodes its
// report.
// A nonzero exit — a violation among them — fails the case.
func resultsOf(t *testing.T, c *child) results {
	t.Helper()
	c.wait(t)
	var records []struct {
		ID    string       `json:"id"`
		Table *stats.Table `json:"table"`
	}
	if err := json.Unmarshal([]byte(c.stdout.String()), &records); err != nil {
		t.Fatalf("decoding the report of %s: %v", c.cmd, err)
	}
	r := make(results)
	for _, rec := range records {
		r[rec.ID] = rec.Table
	}
	return r
}

// cell parses the named column of record id's first row.
func (r results) cell(t *testing.T, id, column string) float64 {
	t.Helper()
	tab := r[id]
	if tab == nil || len(tab.Rows) == 0 {
		t.Fatalf("no %s row in the report", id)
	}
	i := slices.Index(tab.Header, column)
	if i < 0 || i >= len(tab.Rows[0]) {
		t.Fatalf("%s has no %q column: %v", id, column, tab.Header)
	}
	v, err := strconv.ParseFloat(tab.Rows[0][i], 64)
	if err != nil {
		t.Fatalf("%s %s: %v", id, column, err)
	}
	t.Logf("%s %s = %v", id, column, v)
	return v
}

func (r results) zero(t *testing.T, id, column string) {
	t.Helper()
	if v := r.cell(t, id, column); v != 0 {
		t.Errorf("%s %s = %v, want 0", id, column, v)
	}
}

func (r results) positive(t *testing.T, id, column string) {
	t.Helper()
	if v := r.cell(t, id, column); v <= 0 {
		t.Errorf("%s %s = %v, want > 0", id, column, v)
	}
}

// dial opens a newline-JSON session that closes when the case ends.
func dial(t *testing.T, addr string) *client.Conn {
	t.Helper()
	c, err := client.DialConn(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// waitAcquires polls the servers at addrs until one of them has
// granted n acquires, and returns its index.
func waitAcquires(t *testing.T, addrs []string, n uint64) int {
	t.Helper()
	var conns []*client.Conn
	for _, addr := range addrs {
		conns = append(conns, dial(t, addr))
	}
	for deadline := time.Now().Add(patience); ; time.Sleep(5 * time.Millisecond) {
		for i, c := range conns {
			st, err := c.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if st.Acquires >= n {
				return i
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("none of %v granted %d acquires in %v", addrs, n, patience)
		}
	}
}
