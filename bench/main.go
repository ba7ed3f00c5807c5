// Command bench is the repository's benchmark: five lock-service
// workloads measured end to end against real anonlockd processes, and a
// traced ladder that times the same cycle at every layer of the stack.
// README.md in this directory describes the workloads, the metrics and
// how they are expected to interact.
//
//	bench                                  all five workloads, then the ladder
//	bench -workload hotkey                 one workload
//	bench -workload hotkey -trace 1        one workload's layer counters, and the ladder
//	bench -runs 10 -o results/mine.json    ten runs a workload, seeds seed..seed+9
//	bench -compare a.json b.json           verdicts, metric by metric
//
// BENCHMARK.json at the repository's root runs it as bench/run.sh
// --workload W --seed N --seconds S --trace 0|1; the last line of its
// standard output is then the contract's result object.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// Exit codes.
const (
	exitOK        = 0
	exitFailed    = 1 // a crash, an invalid run, a worse verdict, or an error; not a late generator
	exitViolation = 2 // a mutual-exclusion or fencing check failed
)

// repsPerRun is how many replications a run is split into; see plan.
const repsPerRun = 3

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		if code == exitOK {
			code = exitFailed
		}
	}
	os.Exit(code)
}

func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run this workload only (default: all five, then the ladder)")
	seed := fs.Uint64("seed", 1, "seed of the key and arrival schedules")
	seconds := fs.Float64("seconds", 18, "seconds measured per run, over all replications; every other duration scales with it")
	trace := fs.Int("trace", 0, "with -workload: 1 reports the per-layer metrics (layer counters and the ladder) instead of the end-to-end ones")
	runs := fs.Int("runs", 1, "runs per workload, on seeds seed, seed+1, ...")
	outPath := fs.String("o", "", "write the result JSON here (default bench/results/latest.json)")
	smoke := fs.Bool("smoke", false, "a quick pass over everything: one replication of 1 s a workload, a short ladder")
	compare := fs.Bool("compare", false, "compare two result files given as arguments; exits 1 if any metric is worse")
	worker := fs.String("worker", "", "internal: run as the in-process worker of this workload")
	tmp := fs.String("tmp", "", "internal: the worker's scratch directory")
	if err := fs.Parse(args); err != nil {
		return exitFailed, err
	}
	if *worker != "" {
		return exitOK, workerMain(*worker, *seed, *seconds, *tmp)
	}
	if *compare {
		if fs.NArg() != 2 {
			return exitFailed, errors.New("-compare needs two result files")
		}
		return compareFiles(out, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return exitFailed, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		return exitFailed, fmt.Errorf("-trace is 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 || *runs < 1 {
		return exitFailed, errors.New("-seconds and -runs must be positive")
	}

	// The generator stays on two cores at most: the server needs the rest.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	reps := repsPerRun
	if *smoke {
		*seconds, reps = 1, 1
	}
	pl := planFor(*seconds, reps)
	rf := &resultFile{Provenance: newProvenance(*seed, *seconds)}

	root, err := findRepoRoot()
	if err != nil {
		return exitFailed, err
	}
	scratch, err := scratchDir(root)
	if err != nil {
		return exitFailed, err
	}
	defer os.RemoveAll(scratch)
	self, err := os.Executable()
	if err != nil {
		return exitFailed, err
	}
	e := env{self: self, tmp: scratch}
	if e.lockdBin, err = buildLockd(root, scratch); err != nil {
		return exitFailed, err
	}
	resultsDir := filepath.Join(root, "bench", "results")
	if *outPath == "" {
		*outPath = filepath.Join(resultsDir, "latest.json")
	}

	todo := specs
	if *workload != "" {
		sp, ok := specByName(*workload)
		if !ok {
			return exitFailed, fmt.Errorf("unknown workload %q", *workload)
		}
		todo = []spec{sp}
		if *trace == 1 {
			// A traced run spends half its time on the workload's counters,
			// which need no long window, and the rest on the ladder.
			pl = planFor(*seconds/2, 1)
		}
	}

	code := exitOK
	worst := func(c int) {
		if c > code {
			code = c
		}
	}
	for _, sp := range todo {
		for i := 0; i < *runs; i++ {
			res, err := runWorkload(sp, e, *seed+uint64(i), pl)
			if err != nil {
				return exitFailed, err
			}
			rf.Runs = append(rf.Runs, res)
			printRun(out, res)
			switch {
			case !res.Correct:
				worst(exitViolation)
			case !res.ok():
				worst(exitFailed)
			}
		}
	}

	withLadder := *workload == "" || *trace == 1
	if withLadder {
		scale := rf.Provenance.TimeScale
		if *smoke {
			scale = 0.01
		}
		lad, tr, err := runLadder(scale, scratch)
		if err != nil {
			return exitFailed, fmt.Errorf("ladder: %w", err)
		}
		rf.Ladder = lad.metrics
		printMetrics(out, "== ladder", ladderLayer(), lad.metrics)
		if err := os.MkdirAll(resultsDir, 0o755); err != nil {
			return exitFailed, err
		}
		tracePath := filepath.Join(resultsDir, "trace.json")
		if err := tr.dump(tracePath); err != nil {
			return exitFailed, err
		}
		fmt.Fprintf(out, "%d spans written to %s\n", lad.spans, tracePath)
	}

	// A violation writes no metrics anywhere.
	if code != exitViolation {
		if err := os.MkdirAll(filepath.Dir(*outPath), 0o755); err != nil {
			return exitFailed, err
		}
		if err := writeJSON(*outPath, rf); err != nil {
			return exitFailed, err
		}
		fmt.Fprintf(out, "result written to %s\n", *outPath)
	}
	if *workload != "" && *runs == 1 && code != exitViolation {
		res := rf.Runs[0]
		metrics := res.EndToEnd
		if *trace == 1 {
			metrics = map[string]metric{}
			for k, v := range res.PerLayer {
				metrics[k] = v
			}
			for k, v := range rf.Ladder {
				metrics[k] = v
			}
		}
		fmt.Fprintln(out, contractLine(res, metrics))
	}
	return code, nil
}
