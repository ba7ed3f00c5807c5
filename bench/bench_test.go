package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestHistBucketsAreWithinOnePercent(t *testing.T) {
	for _, v := range []int64{0, 1, 127, 128, 129, 255, 256, 1000, 41999, 1e6, 123456789, 1e12 - 1} {
		got := histValue(histBucket(v))
		if err := math.Abs(got-float64(v)) / math.Max(float64(v), 1); err > 0.01 {
			t.Errorf("value %d lands in a bucket reported as %.1f: error %.4f > 1%%", v, got, err)
		}
	}
	// Buckets are contiguous: consecutive values never skip an index.
	prev := histBucket(0)
	for v := int64(1); v < 1<<16; v++ {
		b := histBucket(v)
		if b != prev && b != prev+1 {
			t.Fatalf("bucket jumps from %d to %d at value %d", prev, b, v)
		}
		prev = b
	}
	if b := histBucket(math.MaxInt64); b != histBuckets-1 {
		t.Errorf("huge value in bucket %d, want the last (%d)", b, histBuckets-1)
	}
}

func TestHistQuantiles(t *testing.T) {
	h := newHist()
	for v := int64(1); v <= 100; v++ { // exact region: values are their own buckets
		h.add(v)
	}
	for q, want := range map[float64]float64{0.5: 50, 0.99: 99, 0.999: 100, 0.01: 1} {
		if got := h.quantile(q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	other := newHist()
	other.add(1000)
	h.merge(other)
	if h.n != 101 || h.quantile(1) < 990 {
		t.Errorf("after merge: n=%d max=%v", h.n, h.quantile(1))
	}
	if got := newHist().quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
}

func TestMedianQuartilesSpread(t *testing.T) {
	if got := median([]float64{5, 1, 4, 2, 3}); got != 3 {
		t.Errorf("median of five slices = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	q1, q3 := quartiles(ten)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got, want := spread(ten), 5.5/5.5; got != want {
		t.Errorf("spread of 1..10 = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: extrapolated
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of [1 2] = %v, %v, want 0.75, 2.25", q1, q3)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestSchedulesAreSeeded(t *testing.T) {
	a := keyRing(7, 3, 4096, 1000, 0)
	if !reflect.DeepEqual(a, keyRing(7, 3, 4096, 1000, 0)) {
		t.Error("same seed and stream gave different key rings")
	}
	if reflect.DeepEqual(a, keyRing(8, 3, 4096, 1000, 0)) || reflect.DeepEqual(a, keyRing(7, 4, 4096, 1000, 0)) {
		t.Error("another seed or stream gave the same key ring")
	}
	for _, k := range keyRing(7, 0, 10, 1000, 1.1) {
		if k >= 10 {
			t.Fatalf("zipf key %d outside 10 keys", k)
		}
	}
	const rate, dur = 60000.0, int64(time.Second)
	arr := poissonArrivals(7, rate, dur, 1024, 1.1)
	if !reflect.DeepEqual(arr, poissonArrivals(7, rate, dur, 1024, 1.1)) {
		t.Error("same seed gave different arrival schedules")
	}
	if reflect.DeepEqual(arr, poissonArrivals(8, rate, dur, 1024, 1.1)) {
		t.Error("another seed gave the same arrival schedule")
	}
	if n := float64(len(arr)); math.Abs(n-rate)/rate > 0.03 {
		t.Errorf("%v arrivals in 1 s at %v/s", n, rate)
	}
	hot := 0
	for i, x := range arr {
		if i > 0 && x.due < arr[i-1].due {
			t.Fatalf("arrival %d is due before its predecessor", i)
		}
		if x.due >= dur || x.key >= 1024 {
			t.Fatalf("arrival %d out of range: %+v", i, x)
		}
		if x.key == 0 {
			hot++
		}
	}
	if share := float64(hot) / float64(len(arr)); share < 0.1 {
		t.Errorf("hottest zipf key has share %.3f, want a skewed distribution", share)
	}
}

const statFixture = "4242 (anon lockd) x) S 1 4242 4242 0 -1 4194560 1381 0 0 0 1234 567 0 0 20 0 9 0 8801 1268 " +
	"42 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0 0 0 0 0 0 0 0 0\n"

const ioFixture = `rchar: 4620412
wchar: 1807000
syscr: 400590
syscw: 200390
read_bytes: 0
write_bytes: 4096
cancelled_write_bytes: 0
`

const statusFixture = `Name:	anonlockd
VmPeak:	 1234567 kB
VmHWM:	   17720 kB
VmRSS:	   16000 kB
Threads:	9
voluntary_ctxt_switches:	4943
nonvoluntary_ctxt_switches:	12
`

func TestProcParsers(t *testing.T) {
	ut, st, err := parseProcStat(statFixture)
	if err != nil || ut != 12340000 || st != 5670000 {
		t.Errorf("parseProcStat = %d, %d, %v; want 12340000, 5670000 µs", ut, st, err)
	}
	if _, _, err := parseProcStat("1 (x) S 1 2"); err == nil {
		t.Error("a truncated stat line parsed")
	}
	for key, want := range map[string]uint64{"syscr": 400590, "syscw": 200390, "rchar": 4620412, "wchar": 1807000} {
		if got, err := parseProcField(ioFixture, key); err != nil || got != want {
			t.Errorf("io %s = %d, %v; want %d", key, got, err, want)
		}
	}
	if got, err := parseProcField(statusFixture, "VmHWM"); err != nil || got != 17720 {
		t.Errorf("VmHWM = %d, %v; want 17720", got, err)
	}
	if got, err := parseProcField(statusFixture, "voluntary_ctxt_switches"); err != nil || got != 4943 {
		t.Errorf("voluntary_ctxt_switches = %d, %v; want 4943 (and not the nonvoluntary line)", got, err)
	}
	if _, err := parseProcField(statusFixture, "VmSwap"); err == nil {
		t.Error("a missing field parsed")
	}
	if snap, err := readProc(os.Getpid()); err != nil || snap.hwmKB == 0 || snap.readSys == 0 {
		t.Errorf("readProc(self) = %+v, %v", snap, err)
	}
}

// syntheticWindow is a window whose slices completed the given numbers of
// cycles, by two sessions, one doing twice the other's share.
func syntheticWindow(perSlice [nSlices]uint64) *window {
	w := &window{pl: planFor(5, 1), tail: newHist(), lag: newHist(), recs: []*sessionRec{newSessionRec(), newSessionRec()}}
	for i, c := range perSlice {
		for s, share := range []uint64{2, 1} {
			r := w.recs[s]
			r.slices[i] = sliceCount{attempts: c * share, cycles: c * share}
			r.cycles += c * share
			for k := uint64(0); k < c*share; k++ {
				r.acq[i].add(int64(i+1) * 1000)
			}
		}
		w.cpu[i+1] = w.cpu[i] + 3*c*10 // 10 µs of CPU a cycle
	}
	w.snap[1] = procSnap{hwmKB: 2048, utimeUs: w.cpu[nSlices]}
	return w
}

func TestSummarizeTakesSliceMedians(t *testing.T) {
	sp, _ := specByName("serial")
	res := summarize(sp, 1, syntheticWindow([nSlices]uint64{100, 300, 200, 500, 400}), 0)
	want := map[string]float64{
		"cycles_per_s":     900, // slices of 1 s complete 300, 900, 600, 1500, 1200
		"acquire_p50_us":   3,   // slice i sees (i+1) µs
		"cpu_us_per_cycle": 10,
		"peak_rss_mb":      2,
		"fair_jain":        0.9, // (2+1)² / (2·(4+1))
	}
	for name, v := range want {
		if got := res.EndToEnd[name].Value; math.Abs(got-v) > 0.005*v { // a histogram bucket's width
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	if got := res.PerLayer["loadgen.fair_min_share"].Value; math.Abs(got-2.0/3) > 1e-9 {
		t.Errorf("fair_min_share = %v, want 2/3", got)
	}
	if got := res.PerLayer["loadgen.acquire_p99_us"].Value; math.Abs(got-3) > 0.015 {
		t.Errorf("loadgen.acquire_p99_us = %v, want the slices' median 3", got)
	}
	if res.Cycles != 4500 || res.Attempted != 4500 || res.Failed != 0 || !res.ok() {
		t.Errorf("cycles %d attempted %d failed %d ok %v", res.Cycles, res.Attempted, res.Failed, res.ok())
	}
	if got := summarize(sp, 1, syntheticWindow([nSlices]uint64{1, 1, 1, 1, 1}), 3); got.Correct || got.ok() {
		t.Error("a run with violations counted as correct")
	}
	w := syntheticWindow([nSlices]uint64{1, 1, 1, 1, 1})
	w.crashed = true
	if got := summarize(sp, 1, w, 0); got.ok() || got.Failed != got.Attempted || len(got.EndToEnd) != 0 {
		t.Errorf("a crashed run reported %+v", got)
	}
}

// Rates and durations move to the reference machine's speed; ratios and
// sizes stay; the raw readings are kept.
func TestAtReferenceSpeed(t *testing.T) {
	r := &runResult{PerLayer: map[string]metric{}, EndToEnd: map[string]metric{
		"cycles_per_s":   {Value: 8000, Unit: "1/s", Slices: []float64{7000, 8000, 9000}},
		"acquire_p50_us": {Value: 50, Unit: "us"},
		"peak_rss_mb":    {Value: 16, Unit: "MiB"},
		"fair_jain":      {Value: 0.5625, Unit: "ratio"},
	}}
	r.atReferenceSpeed(0.8) // a machine running at four fifths of the reference
	want := map[string]float64{"cycles_per_s": 10000, "acquire_p50_us": 40, "peak_rss_mb": 16, "fair_jain": 0.5625}
	for name, v := range want {
		if got := r.EndToEnd[name].Value; math.Abs(got-v) > 1e-9 {
			t.Errorf("%s = %v at reference speed, want %v", name, got, v)
		}
	}
	if got := r.EndToEnd["cycles_per_s"].Slices; len(got) != 3 || math.Abs(got[0]-8750) > 1e-9 {
		t.Errorf("slices at reference speed = %v", got)
	}
	if r.PerLayer["raw.cycles_per_s"].Value != 8000 || r.PerLayer["raw.acquire_p50_us"].Value != 50 || r.PerLayer["machine.speed"].Value != 0.8 {
		t.Errorf("raw readings not kept: %+v", r.PerLayer)
	}
	if _, ok := r.PerLayer["raw.peak_rss_mb"]; ok {
		t.Error("a size has no raw twin: it was not rescaled")
	}
	if v := yardstick(20 * time.Millisecond); v <= 0 || math.IsInf(v, 0) {
		t.Errorf("yardstick read %v", v)
	}
}

// A generator that lagged flags the run; it does not fail it.
func TestLateGeneratorFlagsTheRun(t *testing.T) {
	sp, _ := specByName("overload")
	rep := func(lagUs float64) *runResult {
		return &runResult{
			Workload: sp.Name, Correct: true, Cycles: 1, Attempted: 1, EndToEnd: map[string]metric{},
			PerLayer: map[string]metric{"loadgen.lag_p99_us": {Value: lagUs, Unit: "us"}},
		}
	}
	// The median replication decides: one stalled replication in three does not flag.
	if res := mergeReps(sp, []*runResult{rep(4000), rep(15000), rep(4200)}); res.LateGenerator != "" || !res.ok() {
		t.Errorf("one late replication in three: late %q, ok %v", res.LateGenerator, res.ok())
	}
	if res := mergeReps(sp, []*runResult{rep(15000)}); res.LateGenerator == "" || !res.ok() {
		t.Errorf("lag of 15 ms against a 20 ms deadline: late %q, ok %v", res.LateGenerator, res.ok())
	}
	closed, _ := specByName("serial")
	if res := mergeReps(closed, []*runResult{rep(15000)}); res.LateGenerator != "" {
		t.Errorf("a closed-loop workload has no generator to be late: %q", res.LateGenerator)
	}
}

func resultOf(workload string, values map[string][]float64) *resultFile {
	rf := &resultFile{}
	for name, vs := range values {
		for i, v := range vs {
			for len(rf.Runs) <= i {
				rf.Runs = append(rf.Runs, &runResult{Workload: workload, Correct: true, EndToEnd: map[string]metric{}})
			}
			rf.Runs[i].EndToEnd[name] = metric{Value: v}
		}
	}
	return rf
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100.5, 99.5}
	base := resultOf("serial", map[string][]float64{
		"cycles_per_s": steady, "acquire_p50_us": steady, "peak_rss_mb": steady, "cpu_us_per_cycle": {100, 170, 50, 100, 160, 60},
	})
	to := resultOf("serial", map[string][]float64{
		"cycles_per_s":     {70, 71, 69, 70, 70.5, 69.5},       // 30 % fewer cycles: worse
		"acquire_p50_us":   {110, 111, 109, 110, 110.5, 109.5}, // 10 % slower: inside the 25 % bound
		"peak_rss_mb":      {50, 51, 49, 50, 50.5, 49.5},       // better
		"cpu_us_per_cycle": {100, 170, 50, 100, 160, 60},       // spread far wider than the bound
	})
	want := map[string]string{
		"cycles_per_s": verdictWorse, "acquire_p50_us": verdictOK, "peak_rss_mb": verdictOK,
		"cpu_us_per_cycle": verdictUnresolved,
	}
	rows := compareResults(base, to)
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for _, c := range rows {
		if c.verdict != want[c.def.Name] {
			t.Errorf("%s: verdict %s, want %s", c.def.Name, c.verdict, want[c.def.Name])
		}
	}
	// A noisy metric still resolves when every run under test beats every base run.
	d := endToEnd[1] // cycles_per_s, higher is better
	if got := judge(d, []float64{100, 150, 60}, []float64{200, 300, 160}); got != verdictOK {
		t.Errorf("all-better noisy metric judged %s", got)
	}
	if got := judge(d, steady, nil); got != verdictMissing {
		t.Errorf("metric absent under test judged %s", got)
	}

	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := writeJSON(a, base); err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(b, to); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code, err := run([]string{"-compare", a, b}, &out); err != nil || code != exitFailed {
		t.Errorf("-compare with a worse metric: code %d, err %v\n%s", code, err, out.String())
	}
	if code, err := run([]string{"-compare", a, a}, &out); err != nil || code != exitOK {
		t.Errorf("-compare of a file with itself: code %d, err %v", code, err)
	}
	if !strings.Contains(out.String(), "0.700 of 100") {
		t.Errorf("-compare does not print the ratio with its base:\n%s", out.String())
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json and the code's
// tables of workloads and metrics the same list.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricDef                  `json:"end_to_end"`
		PerLayer  []metricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(file.Workloads), len(specs))
	}
	for i, sp := range specs {
		if w := file.Workloads[i]; w.Name != sp.Name || w.Why != sp.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, sp.Name, sp.Why)
		}
		if len(sp.Why) > 200 || strings.Contains(sp.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", sp.Name, len(sp.Why))
		}
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n file %+v\n code %+v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer()) {
		t.Errorf("per_layer differs:\n file %+v\n code %+v", file.PerLayer, perLayer())
	}
}

// TestSmoke builds the benchmark and runs all five workloads for a second
// each against real child processes, then a short ladder, and checks that
// every metric the catalogue names was measured.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns servers")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building the benchmark: %v\n%s", err, out)
	}
	result := filepath.Join(dir, "smoke.json")
	if out, err := exec.Command(bin, "-smoke", "-o", result).CombinedOutput(); err != nil {
		t.Fatalf("bench -smoke: %v\n%s", err, out)
	}
	rf, err := readResultFile(result)
	if err != nil {
		t.Fatal(err)
	}
	if len(rf.Runs) != len(specs) {
		t.Fatalf("%d runs, want one per workload", len(rf.Runs))
	}
	for i, r := range rf.Runs {
		sp := specs[i]
		if r.Workload != sp.Name || !r.Correct || r.Crashed || r.Violations != 0 || r.Cycles == 0 {
			t.Errorf("%s: run %+v", sp.Name, r)
		}
		for _, d := range endToEnd {
			if m, ok := r.EndToEnd[d.Name]; !ok || m.Unit != d.Unit || m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %+v (present %v)", sp.Name, d.Name, m, ok)
			}
		}
		for _, d := range counterLayer {
			if m, ok := r.PerLayer[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: per-layer metric %s = %+v (present %v)", sp.Name, d.Name, m, ok)
			}
		}
		if closedNet := sp.Rate == 0 && !sp.Inproc; closedNet && r.PerLayer["loadgen.failed_frac"].Value != 0 {
			t.Errorf("%s: failed_frac = %v on a closed-loop workload", sp.Name, r.PerLayer["loadgen.failed_frac"].Value)
		}
	}
	for _, d := range ladderLayer() {
		if m, ok := rf.Ladder[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("ladder metric %s = %+v (present %v)", d.Name, m, ok)
		}
	}
	if p := rf.Provenance; p.NumCPU == 0 || p.GoVersion == "" || p.Kernel == "" || p.TimeScale != 1.0/20 {
		t.Errorf("provenance %+v", p)
	}
}
