package loadgen

// Open-loop load generation: a pacer emits arrivals on the spec's
// schedule (Poisson or bursty) at the offered rate, independent of how
// fast the backend serves them; clients pull arrivals from a bounded
// backlog. In-flight work is bounded by the client count and the
// backlog bound, so overload shows up as queue wait, SLA aborts, and
// shed arrivals instead of unbounded goroutine growth — exactly the
// offered-load-versus-achieved-throughput picture abortable-mutex
// evaluations report.

import (
	"math"
	"time"

	"anonmutex/internal/workload"
)

// pacerStream is the arrival schedule's workload stream id; it cannot
// collide with a client index.
const pacerStream = math.MaxUint64

// pace emits arrival stamps on the spec's schedule until the run's
// bound (Cycles or Duration) or an error stops it, then closes the
// channel. A full backlog sheds the arrival: the pacer never blocks,
// which is what makes the loop open.
func (st *runState) pace(arrivals chan<- time.Time) {
	defer close(arrivals)
	src := workload.NewSource(st.spec, pacerStream)
	emitted := int64(0)
	next := time.Now()
	for !st.stop.Load() {
		if st.cfg.Cycles > 0 && emitted >= int64(st.cfg.Cycles) {
			return
		}
		if st.cfg.Duration > 0 && !next.Before(st.deadline) {
			return
		}
		// Sleep until the scheduled arrival; if the schedule is already
		// in the past (rates beyond timer resolution), emit immediately
		// — the schedule, not the emitter, defines the offered load.
		// Sleep in short slices so a failing run is not held hostage to
		// a long inter-arrival gap.
		for wait := time.Until(next); wait > 0; wait = time.Until(next) {
			if st.stop.Load() {
				return
			}
			if wait > 10*time.Millisecond {
				wait = 10 * time.Millisecond
			}
			time.Sleep(wait)
		}
		select {
		case arrivals <- next:
		default:
			st.shed.Add(1)
		}
		emitted++
		st.arrivals.Add(1)
		next = next.Add(src.NextArrivalDelay())
	}
}

// openLoop is one client's open-loop service loop: pull an arrival,
// draw its key/op/session from this client's stream, and serve it. The
// latency clock starts at the arrival stamp, so queue wait counts.
// Timed ops budget their deadline from the arrival too: an op whose SLA
// expired while queued aborts without touching the backend.
func (st *runState) openLoop(me int, arrivals <-chan time.Time) {
	c, err := st.newClient(me)
	if err != nil {
		st.fail(err)
		return
	}
	defer c.lk.Close()
	timeout := st.spec.Ops.Timeout()
	for stamp := range arrivals {
		// A stopped run and a run past its wall-clock bound both stop
		// serving; draining the backlog as shed keeps the arrival
		// accounting conserved and Duration a real bound even for
		// blocking op mixes.
		if st.stop.Load() || (st.cfg.Duration > 0 && !time.Now().Before(st.deadline)) {
			st.shed.Add(1)
			continue
		}
		k := c.src.PickKey(st.cfg.Keys)
		kind := c.src.NextOp()
		sess := c.src.NextSession()
		opTimeout := timeout
		if kind == workload.OpTimed {
			opTimeout = timeout - time.Since(stamp)
			if opTimeout <= 0 {
				st.aborts.Add(1)
				continue
			}
		}
		if !st.tally(c.runCycle(k, kind, sess, stamp, opTimeout)) {
			return
		}
		// No remainder think time: in an open loop the arrival process,
		// not the client, owns the pacing.
	}
}
