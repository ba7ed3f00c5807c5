package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// env is what every run of an invocation shares: the built server, this
// binary (for the inproc worker) and a scratch directory.
type env struct {
	lockdBin string
	self     string
	tmp      string
}

// leaseTTL is the lease lifetime of the leased workloads: 2 s against
// cycles of microseconds, so a lease expiring means something stalled.
const leaseTTL = 2 * time.Second

// runWorkload runs pl.reps replications of the workload, each between two
// yardstick bursts and rescaled to the reference machine's speed by their
// mean, and merges them into the run's result. setup_s is the median
// set-up time.
func runWorkload(sp spec, e env, seed uint64, pl plan) (*runResult, error) {
	var reps []*runResult
	var setups, rawSetups []float64
	before := yardstick(pl.yard)
	for i := 0; i < pl.reps; i++ {
		t0 := time.Now()
		r, err := setUp(sp, e, seed+uint64(i)<<32, pl)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", sp.Name, err)
		}
		setup := time.Since(t0).Seconds()
		rep := r.measure()
		reps = append(reps, rep)
		if !rep.ok() {
			break // a crash or a violation is the run's result; more of it adds nothing
		}
		after := yardstick(pl.yard)
		speed := (before + after) / 2
		rep.atReferenceSpeed(speed)
		rawSetups, setups = append(rawSetups, setup), append(setups, setup*speed)
		before = after
	}
	res := mergeReps(sp, reps)
	res.Seed, res.SetupSeconds = seed, rawSetups
	if res.ok() {
		res.EndToEnd["setup_s"] = metric{Value: median(setups), Unit: "s"}
		res.PerLayer["raw.setup_s"] = metric{Value: median(rawSetups), Unit: "s"}
	}
	return res, nil
}

// prepared is a workload set up and warm; measure drives one window on it
// and tears it down.
type prepared interface {
	measure() *runResult
}

func setUp(sp spec, e env, seed uint64, pl plan) (prepared, error) {
	if sp.Inproc {
		return setUpWorker(sp, e, seed, pl)
	}
	return setUpNet(sp, e, seed, pl)
}

// netRun is a network workload's set-up: an anonlockd child, a client on
// it, and the rig over the client's sessions.
type netRun struct {
	rig
	pl      plan
	srv     *child
	cl      *lockClient
	dataDir string
}

func setUpNet(sp spec, e env, seed uint64, pl plan) (_ *netRun, err error) {
	n := &netRun{pl: pl}
	defer func() {
		if err != nil {
			n.discard()
		}
	}()
	var args []string
	if sp.Leased {
		if n.dataDir, err = os.MkdirTemp(e.tmp, sp.Name+"-journal-"); err != nil {
			return nil, err
		}
		// -fsync off keeps the sandbox's disk out of the number.
		args = []string{"-lease-ttl", leaseTTL.String(), "-data-dir", n.dataDir, "-fsync", "off"}
	}
	var addr string
	if n.srv, addr, err = startLockd(e.lockdBin, args...); err != nil {
		return nil, err
	}
	count := sp.sessionCount()
	// One more stream than sessions: the stats op has its own, idle but
	// at the edges of the window, and must not cost a third socket.
	perSocket := (count + sp.Sockets) / sp.Sockets
	if n.cl, err = dialLockd(addr, "binary", perSocket); err != nil {
		return nil, err
	}
	n.rig = rig{
		sp: sp, seed: seed, names: keyNames(sp.Name, sp.Keys), gate: newGate(sp.Keys, sp.Leased),
		stats: n.cl.Stats, pid: n.srv.pid(), dead: n.srv.exited,
		interrupt: func() { n.cl.Close() },
	}
	for i := 0; i < count; i++ {
		s, err := n.cl.Open()
		if err != nil {
			return nil, err
		}
		n.sessions = append(n.sessions, s)
	}
	// The first stats call opens the client's stats stream; pay for it here.
	if _, err = n.cl.Stats(); err != nil {
		return nil, err
	}
	if err = n.warm(); err != nil {
		return nil, err
	}
	return n, nil
}

func (n *netRun) measure() *runResult {
	defer n.discard()
	w := n.drive(n.pl)
	violations := n.gate.violations.Load()
	if !w.crashed {
		st, err := n.cl.Stats()
		if err != nil && w.firstErr == nil {
			w.firstErr = fmt.Errorf("final stats: %w", err)
		}
		violations += st.Violations
	}
	res := summarize(n.sp, n.seed, w, violations)
	if res.Crashed {
		n.srv.stop(2 * time.Second)
		res.StderrTail = n.srv.tail.String()
	}
	return res
}

func (n *netRun) discard() {
	if n.cl != nil {
		n.cl.Close()
	}
	if n.srv != nil {
		n.srv.stop(2 * time.Second)
	}
	if n.dataDir != "" {
		os.RemoveAll(n.dataDir)
	}
}

// The inproc workload runs in a worker: this binary re-executed with
// -worker. The worker sets the stack up and warms it, prints "ready" (the
// end of set-up, as the parent times it), drives one window and prints
// the replication as one line of JSON.

type workerRun struct {
	sp   spec
	seed uint64
	c    *child
	dir  string
}

func setUpWorker(sp spec, e env, seed uint64, pl plan) (*workerRun, error) {
	dir, err := os.MkdirTemp(e.tmp, sp.Name+"-journal-")
	if err != nil {
		return nil, err
	}
	c, err := spawn(e.self, "-worker", sp.Name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(pl.window.Seconds(), 'f', -1, 64), "-tmp", dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	wr := &workerRun{sp: sp, seed: seed, c: c, dir: dir}
	line, err := c.stdout.ReadString('\n')
	if strings.TrimSpace(line) != "ready" {
		wr.discard()
		return nil, fmt.Errorf("worker did not become ready (%v): %q\n%s", err, line, c.tail.String())
	}
	return wr, nil
}

func (wr *workerRun) measure() *runResult {
	defer wr.discard()
	line, rerr := wr.c.stdout.ReadBytes('\n')
	res := &runResult{}
	if err := json.Unmarshal(line, res); rerr != nil || err != nil {
		// The worker died mid-window: the known case is a panic in the
		// code under test.
		wr.c.stop(2 * time.Second)
		return &runResult{
			Workload: wr.sp.Name, Seed: wr.seed, Correct: true, Crashed: true,
			Attempted: 1, Failed: 1, StderrTail: wr.c.tail.String(),
			EndToEnd: map[string]metric{}, PerLayer: map[string]metric{},
		}
	}
	return res
}

func (wr *workerRun) discard() {
	wr.c.stop(2 * time.Second)
	os.RemoveAll(wr.dir)
}

// workerMain is the worker side of the protocol above.
func workerMain(name string, seed uint64, seconds float64, tmp string) error {
	sp, ok := specByName(name)
	if !ok || !sp.Inproc {
		return fmt.Errorf("worker: %q is not an in-process workload", name)
	}
	st, err := newInprocStack(leaseTTL, tmp, "off")
	if err != nil {
		return err
	}
	defer st.Close()
	r := rig{
		sp: sp, seed: seed, names: keyNames(sp.Name, sp.Keys), gate: newGate(sp.Keys, sp.Leased),
		stats: func() (serverStats, error) { return st.Stats(), nil },
		pid:   os.Getpid(), dead: func() bool { return false },
	}
	for i := 0; i < sp.sessionCount(); i++ {
		r.sessions = append(r.sessions, st.Open())
	}
	if err := r.warm(); err != nil {
		return err
	}
	fmt.Println("ready")
	w := r.drive(planFor(seconds, 1))
	res := summarize(sp, seed, w, r.gate.violations.Load()+st.Stats().Violations)
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

// scratchDir makes the invocation's scratch directory under the
// checkout's build directory, so nothing is written outside the checkout.
func scratchDir(repoRoot string) (string, error) {
	base := filepath.Join(repoRoot, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}
