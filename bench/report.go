package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
)

// metricDef names one metric of the benchmark. The two tables below are
// the catalogue BENCHMARK.json lists; a test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the lock service would see, each
// reported by every workload, each with the share of the parent's median
// it may worsen by before the change counts as a regression. The rates
// and durations among them are at the reference machine's speed
// (yardstick.go); their raw readings are the raw.* layer metrics.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cycles_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "acquire_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "cpu_us_per_cycle", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.15},
	{Name: "fair_jain", Unit: "ratio", Better: "higher", Bound: 0.10},
}

// counterLayer are the per-layer metrics taken from outside the server
// during a workload's window; ladderLayer (ladder.go) are the rest.
var counterLayer = []metricDef{
	{Name: "socket.read_syscalls_per_cycle", Unit: "count", Better: "lower"},
	{Name: "socket.write_syscalls_per_cycle", Unit: "count", Better: "lower"},
	{Name: "socket.bytes_in_per_cycle", Unit: "B", Better: "lower"},
	{Name: "socket.bytes_out_per_cycle", Unit: "B", Better: "lower"},
	{Name: "server.cpu_sys_share", Unit: "ratio", Better: "lower"},
	{Name: "server.vol_ctx_switches_per_cycle", Unit: "count", Better: "lower"},
	{Name: "lockmgr.waits_per_cycle", Unit: "count", Better: "lower"},
	{Name: "lockmgr.creates_per_cycle", Unit: "count", Better: "lower"},
	{Name: "lockmgr.evictions_per_cycle", Unit: "count", Better: "lower"},
	{Name: "lockmgr.aborts_per_cycle", Unit: "count", Better: "lower"},
	{Name: "lockmgr.lease_timeouts_per_cycle", Unit: "count", Better: "lower"},
	{Name: "lockmgr.try_failures_per_cycle", Unit: "count", Better: "lower"},
	{Name: "lease.expired", Unit: "count", Better: "lower"},
	{Name: "lease.fenced_rejects", Unit: "count", Better: "lower"},
	{Name: "journal.bytes_per_cycle", Unit: "B", Better: "lower"},
	{Name: "journal.write_syscalls_per_cycle", Unit: "count", Better: "lower"},
	{Name: "session.streams", Unit: "count", Better: "lower"},
	{Name: "session.sessions", Unit: "count", Better: "lower"},
	{Name: "loadgen.lag_p50_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.lag_p99_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.shed_frac", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.abort_frac", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.failed_frac", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.fair_min_share", Unit: "ratio", Better: "higher"},
	{Name: "loadgen.cpu_us_per_cycle", Unit: "us", Better: "lower"},
	{Name: "loadgen.release_p50_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.acquire_p99_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.acquire_p999_us", Unit: "us", Better: "lower"},
	{Name: "machine.speed", Unit: "ratio", Better: "higher"},
	{Name: "raw.setup_s", Unit: "s", Better: "lower"},
	{Name: "raw.cycles_per_s", Unit: "1/s", Better: "higher"},
	{Name: "raw.acquire_p50_us", Unit: "us", Better: "lower"},
	{Name: "raw.cpu_us_per_cycle", Unit: "us", Better: "lower"},
}

func perLayer() []metricDef {
	return append(append([]metricDef(nil), counterLayer...), ladderLayer()...)
}

// metric is one measured value. Slices holds the per-slice values a
// median was taken over, where the metric has them.
type metric struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Slices []float64 `json:"slices,omitempty"`
}

// runResult is one run of one workload.
type runResult struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	// Correct: no mutual-exclusion or fencing violation, client or server
	// side. Crashed: the process under test died; StderrTail is its last
	// output. Invalid: the run broke one of the benchmark's own validity
	// rules (expired leases, no cycle completed) and why. LateGenerator: an
	// open-loop run whose generator lagged past lagLimit; its numbers are
	// reported and the run counts, flagged.
	Correct       bool   `json:"correct"`
	Crashed       bool   `json:"crashed,omitempty"`
	StderrTail    string `json:"stderr_tail,omitempty"`
	Invalid       string `json:"invalid,omitempty"`
	LateGenerator string `json:"late_generator,omitempty"`
	FirstError    string `json:"first_error,omitempty"`
	// Attempted counts cycles begun (closed loop) or arrivals due (open
	// loop) in the window; Failed the ones that ended in an error;
	// Unserved the ones shed or aborted at their deadline, which is the
	// open-loop workload's measured outcome and not an error.
	Attempted  uint64 `json:"attempted"`
	Failed     uint64 `json:"failed"`
	Unserved   uint64 `json:"unserved"`
	Cycles     uint64 `json:"cycles"`
	Violations uint64 `json:"violations"`
	// AcquireSamples is the number of latency samples in each slice: the
	// 99th percentile has a hundredth of them beyond it.
	AcquireSamples []uint64          `json:"acquire_samples"`
	SetupSeconds   []float64         `json:"setup_seconds,omitempty"`
	EndToEnd       map[string]metric `json:"end_to_end"`
	PerLayer       map[string]metric `json:"per_layer"`
}

func (r *runResult) ok() bool { return r.Correct && !r.Crashed && r.Invalid == "" }

func usOf(ns float64) float64 { return ns / 1e3 }

func perCycle(delta uint64, cycles uint64) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(delta) / float64(cycles)
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// summarize turns a driven window into the run's metrics. It fills every
// end-to-end metric but setup_s, which belongs to whoever set the rig up.
func summarize(sp spec, seed uint64, w *window, violations uint64) *runResult {
	res := &runResult{
		Workload: sp.Name, Seed: seed, Seconds: w.pl.window.Seconds(),
		Crashed: w.crashed, Violations: violations, Correct: violations == 0,
		EndToEnd: map[string]metric{}, PerLayer: map[string]metric{},
	}
	if w.firstErr != nil {
		res.FirstError = w.firstErr.Error()
	}
	sliceSec := w.pl.slice().Seconds()
	var cps, p50, p99, cpuPer []float64
	all, rel := newHist(), newHist()
	var shed, aborts uint64
	for i := 0; i < nSlices; i++ {
		var c sliceCount
		h := newHist()
		for _, rec := range w.recs {
			s := rec.slices[i]
			c.attempts += s.attempts
			c.cycles += s.cycles
			c.aborts += s.aborts
			c.errs += s.errs
			h.merge(rec.acq[i])
		}
		if sp.Rate > 0 {
			c.attempts = w.due[i]
		}
		if i == nSlices-1 {
			h.merge(w.tail)
		}
		all.merge(h)
		res.Attempted += c.attempts
		res.Failed += c.errs
		res.Unserved += w.shed[i] + c.aborts
		res.Cycles += c.cycles
		shed += w.shed[i]
		aborts += c.aborts
		res.AcquireSamples = append(res.AcquireSamples, h.n)
		cps = append(cps, float64(c.cycles)/sliceSec)
		p50 = append(p50, usOf(h.quantile(0.50)))
		p99 = append(p99, usOf(h.quantile(0.99)))
		cpuPer = append(cpuPer, perCycle(w.cpu[i+1]-w.cpu[i], c.cycles))
	}
	if w.crashed {
		// A dead backend fails the workload whole: nothing it completed
		// before dying is a result.
		res.Failed = max(res.Attempted, 1)
		res.Attempted = res.Failed
		return res
	}
	var sum, sumSq float64
	least := math.Inf(1)
	for _, rec := range w.recs {
		rel.merge(rec.rel)
		x := float64(rec.cycles)
		sum += x
		sumSq += x * x
		least = min(least, x)
	}
	jain, minShare := 0.0, 0.0
	if sessions := float64(len(w.recs)); sum > 0 {
		jain = sum * sum / (sessions * sumSq)
		minShare = least / (sum / sessions)
	}

	e := func(name string, v float64, slices []float64) {
		for _, d := range endToEnd {
			if d.Name == name {
				res.EndToEnd[name] = metric{Value: v, Unit: d.Unit, Slices: slices}
			}
		}
	}
	e("cycles_per_s", median(cps), cps)
	e("acquire_p50_us", median(p50), p50)
	e("cpu_us_per_cycle", median(cpuPer), cpuPer)
	e("peak_rss_mb", float64(w.snap[1].hwmKB)/1024, nil)
	e("fair_jain", jain, nil)

	n := res.Cycles
	d0, d1 := w.snap[0], w.snap[1]
	s0, s1 := w.stats[0], w.stats[1]
	l := map[string]float64{
		"server.cpu_sys_share":              ratio(d1.stimeUs-d0.stimeUs, d1.cpuUs()-d0.cpuUs()),
		"server.vol_ctx_switches_per_cycle": perCycle(d1.volCtx-d0.volCtx, n),
		"lockmgr.waits_per_cycle":           perCycle(s1.Waits-s0.Waits, n),
		"lockmgr.creates_per_cycle":         perCycle(s1.Creates-s0.Creates, n),
		"lockmgr.evictions_per_cycle":       perCycle(s1.Evictions-s0.Evictions, n),
		"lockmgr.aborts_per_cycle":          perCycle(s1.Aborts-s0.Aborts, n),
		"lockmgr.lease_timeouts_per_cycle":  perCycle(s1.LeaseTimeouts-s0.LeaseTimeouts, n),
		"lockmgr.try_failures_per_cycle":    perCycle(s1.TryFailures-s0.TryFailures, n),
		"lease.expired":                     float64(s1.Expired - s0.Expired),
		"lease.fenced_rejects":              float64(s1.FencedRejects - s0.FencedRejects),
		"session.streams":                   float64(s1.Streams),
		"session.sessions":                  float64(s1.Sessions),
		"loadgen.lag_p50_us":                usOf(w.lag.quantile(0.50)),
		"loadgen.lag_p99_us":                usOf(w.lag.quantile(0.99)),
		"loadgen.shed_frac":                 ratio(shed, res.Attempted),
		"loadgen.abort_frac":                ratio(aborts, res.Attempted),
		"loadgen.failed_frac":               ratio(res.Unserved+res.Failed, res.Attempted),
		"loadgen.fair_min_share":            minShare,
		"loadgen.release_p50_us":            usOf(rel.quantile(0.50)),
		"loadgen.acquire_p999_us":           usOf(all.quantile(0.999)),
	}
	// The measured process's syscalls are socket traffic when it is a
	// server and journal writes when it is the inproc worker, which has
	// no socket; the worker is also its own load generator.
	rs, ws := perCycle(d1.readSys-d0.readSys, n), perCycle(d1.writeSys-d0.writeSys, n)
	rb, wb := perCycle(d1.readBytes-d0.readBytes, n), perCycle(d1.writeBytes-d0.writeBytes, n)
	if sp.Inproc {
		l["journal.write_syscalls_per_cycle"], l["journal.bytes_per_cycle"] = ws, wb
	} else {
		l["socket.read_syscalls_per_cycle"], l["socket.write_syscalls_per_cycle"] = rs, ws
		l["socket.bytes_in_per_cycle"], l["socket.bytes_out_per_cycle"] = rb, wb
		l["loadgen.cpu_us_per_cycle"] = perCycle(w.selfCPU[1]-w.selfCPU[0], n)
	}
	for _, d := range counterLayer {
		res.PerLayer[d.Name] = metric{Value: l[d.Name], Unit: d.Unit}
	}
	// The one layer metric with slice values: like the end-to-end timings
	// it is the median over slices, and over replications' slices.
	res.PerLayer["loadgen.acquire_p99_us"] = metric{Value: median(p99), Unit: "us", Slices: p99}

	return res
}

// mergeReps folds a run's replications into its result. A metric with
// slice values becomes the median of every replication's slices; one
// without becomes the median of the replications' values, except the
// lease counts, which add up: one expired lease anywhere invalidates the
// run. Operation counts add up.
func mergeReps(sp spec, reps []*runResult) *runResult {
	res := &runResult{
		Workload: reps[0].Workload, Correct: true,
		EndToEnd: map[string]metric{}, PerLayer: map[string]metric{},
	}
	for _, r := range reps {
		res.Seconds += r.Seconds
		res.Correct = res.Correct && r.Correct
		res.Crashed = res.Crashed || r.Crashed
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		res.Unserved += r.Unserved
		res.Cycles += r.Cycles
		res.Violations += r.Violations
		res.AcquireSamples = append(res.AcquireSamples, r.AcquireSamples...)
		if res.StderrTail == "" {
			res.StderrTail = r.StderrTail
		}
		if res.FirstError == "" {
			res.FirstError = r.FirstError
		}
	}
	if res.Crashed || !res.Correct {
		return res // no metrics from a run that crashed or broke exclusion
	}
	fold := func(dst map[string]metric, pick func(*runResult) map[string]metric) {
		for name, first := range pick(reps[0]) {
			m := metric{Unit: first.Unit}
			var values []float64
			for _, r := range reps {
				values = append(values, pick(r)[name].Value)
				m.Slices = append(m.Slices, pick(r)[name].Slices...)
			}
			switch {
			case len(m.Slices) > 0:
				m.Value = median(m.Slices)
			case name == "lease.expired" || name == "lease.fenced_rejects":
				for _, v := range values {
					m.Value += v
				}
			default:
				m.Value = median(values)
			}
			dst[name] = m
		}
	}
	fold(res.EndToEnd, func(r *runResult) map[string]metric { return r.EndToEnd })
	fold(res.PerLayer, func(r *runResult) map[string]metric { return r.PerLayer })
	res.Invalid = invalidity(res)
	res.LateGenerator = lateGenerator(sp, res)
	return res
}

// invalidity names the validity rule a run broke, if any: the run then
// measured something other than its workload and exits nonzero.
func invalidity(res *runResult) string {
	v := func(name string) float64 { return res.PerLayer[name].Value }
	switch {
	case v("lease.expired") != 0 || v("lease.fenced_rejects") != 0:
		return fmt.Sprintf("leases expired (%v) or were fenced (%v) during the window: the run measured recovery, not the workload",
			v("lease.expired"), v("lease.fenced_rejects"))
	case res.Cycles == 0:
		return "no cycle completed in the window"
	}
	return ""
}

// lagLimit is the share of an open-loop workload's deadline its
// generator's lag may reach, at the 99th percentile, before the run is
// flagged as having offered a burstier load than the one it claims to.
const lagLimit = 0.5

// lateGenerator flags an open-loop run whose generator lagged past
// lagLimit. The flag does not fail the run: on a shared host one stall of
// a tenth of a second in a window of a few is enough to raise it, the
// arrivals it delayed were still offered and timed from their due times,
// and a benchmark that dies on its host's hiccups gates nothing.
func lateGenerator(sp spec, res *runResult) string {
	lag := res.PerLayer["loadgen.lag_p99_us"].Value
	if sp.Rate == 0 || lag <= lagLimit*usOf(float64(sp.Deadline)) {
		return ""
	}
	return fmt.Sprintf("generator lag p99 %.0f us exceeds %v of the %v deadline: part of the load arrived in bursts",
		lag, lagLimit, sp.Deadline)
}

// provenance is what a result needs for anyone to judge whether two
// result files are comparable.
type provenance struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	TimeScale  float64 `json:"time_scale"`
}

func newProvenance(seed uint64, seconds float64) provenance {
	return provenance{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Kernel: kernelRelease(), Seed: seed, Seconds: seconds, TimeScale: seconds / designWindow.Seconds(),
	}
}

// resultFile is what the benchmark writes: every run it made, and the
// ladder when it ran one.
type resultFile struct {
	Provenance provenance        `json:"provenance"`
	Runs       []*runResult      `json:"runs"`
	Ladder     map[string]metric `json:"ladder,omitempty"`
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// printMetrics prints name, value and unit, one metric a line, in the
// catalogue's order.
func printMetrics(out io.Writer, title string, defs []metricDef, got map[string]metric) {
	fmt.Fprintf(out, "%s\n", title)
	for _, d := range defs {
		m, ok := got[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(out, "  %-40s %14.4f %s\n", d.Name, m.Value, m.Unit)
	}
}

func printRun(out io.Writer, r *runResult) {
	fmt.Fprintf(out, "== %s  seed %d  window %.1fs  cycles %d  attempted %d  failed %d  unserved %d  violations %d\n",
		r.Workload, r.Seed, r.Seconds, r.Cycles, r.Attempted, r.Failed, r.Unserved, r.Violations)
	switch {
	case r.Crashed:
		fmt.Fprintf(out, "  CRASHED: the process under test died; its last output:\n%s\n", indent(r.StderrTail))
	case !r.Correct:
		fmt.Fprintf(out, "  VIOLATION: %d mutual-exclusion or fencing checks failed; no metrics\n", r.Violations)
		return
	case r.Invalid != "":
		fmt.Fprintf(out, "  INVALID: %s\n", r.Invalid)
	case r.LateGenerator != "":
		fmt.Fprintf(out, "  LATE GENERATOR: %s\n", r.LateGenerator)
	}
	if r.FirstError != "" {
		fmt.Fprintf(out, "  first error: %s\n", r.FirstError)
	}
	printMetrics(out, " end to end", endToEnd, r.EndToEnd)
	printMetrics(out, " per layer", counterLayer, r.PerLayer)
}

func indent(s string) string {
	return "    " + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n    ")
}

// contractLine is the last line of standard output the benchmark
// contract asks for: one JSON object with exactly these keys.
func contractLine(r *runResult, metrics map[string]metric) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.ok(), Attempted: max(r.Attempted, 1), Failed: r.Failed, Metrics: map[string]value{}}
	for name, m := range metrics {
		out.Metrics[name] = value{m.Value, m.Unit}
	}
	b, _ := json.Marshal(out) // a map of numbers and strings cannot fail to marshal
	return string(b)
}
