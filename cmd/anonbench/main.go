// Command anonbench runs the reproduction experiment suite: one
// experiment per paper artifact (Table I, Figures 1-2, Table II,
// Theorem 5) plus the quantitative additions and the scenario-registry
// sweep, printing paper-style tables or machine-readable JSON.
//
// Usage:
//
//	anonbench                    # run everything, serially
//	anonbench -parallel 0        # run everything on GOMAXPROCS workers
//	anonbench -experiment T2     # one experiment
//	anonbench -list              # list experiment ids
//	anonbench -json              # JSON results (presentation order)
//
// The suite is the reproduction (T1…S1), not a performance record: what
// the lock service costs is measured by bench/ (BENCHMARK.json).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"anonmutex/internal/experiments"
	"anonmutex/internal/stats"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "anonbench:", err)
		os.Exit(1)
	}
}

// resultJSON is one experiment's machine-readable record.
type resultJSON struct {
	ID      string       `json:"id"`
	Title   string       `json:"title"`
	Seconds float64      `json:"seconds"`
	Table   *stats.Table `json:"table"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("anonbench", flag.ContinueOnError)
	expID := fs.String("experiment", "", "run a single experiment by id (default: all)")
	list := fs.Bool("list", false, "list experiments and exit")
	parallel := fs.Int("parallel", 1, "worker-pool size for running experiments concurrently (0: GOMAXPROCS)")
	jsonOut := fs.Bool("json", false, "emit results as JSON instead of text tables")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return nil
	}

	var toRun []experiments.Experiment
	if *expID != "" {
		e, err := experiments.ByID(*expID)
		if err != nil {
			return err
		}
		toRun = append(toRun, e)
	} else {
		toRun = experiments.All()
	}

	// Serial text mode streams each table as its experiment finishes (the
	// historical behavior). Pooled and JSON runs collect first: JSON must
	// be one valid document, and pooled completion order is not
	// presentation order.
	if !*jsonOut && *parallel == 1 {
		for i, e := range toRun {
			if i > 0 {
				fmt.Println()
			}
			start := time.Now()
			tbl, err := e.Run()
			if err != nil {
				return fmt.Errorf("experiment %s: %w", e.ID, err)
			}
			fmt.Printf("[%s] %s  (%.2fs)\n", e.ID, e.Title, time.Since(start).Seconds())
			fmt.Print(tbl.String())
		}
		return nil
	}

	outcomes := experiments.RunConcurrent(toRun, *parallel)

	if *jsonOut {
		for _, o := range outcomes {
			if o.Err != nil {
				return fmt.Errorf("experiment %s: %w", o.ID, o.Err)
			}
		}
		results := make([]resultJSON, len(outcomes))
		for i, o := range outcomes {
			results[i] = resultJSON{
				ID:      o.ID,
				Title:   o.Title,
				Seconds: o.Elapsed.Seconds(),
				Table:   o.Table,
			}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(results)
	}

	// Pooled text mode: print every completed table in presentation order
	// before reporting the first failure, so one broken experiment does
	// not discard the rest of the run.
	var firstErr error
	for i, o := range outcomes {
		if i > 0 {
			fmt.Println()
		}
		if o.Err != nil {
			fmt.Printf("[%s] %s  FAILED: %v\n", o.ID, o.Title, o.Err)
			if firstErr == nil {
				firstErr = fmt.Errorf("experiment %s: %w", o.ID, o.Err)
			}
			continue
		}
		fmt.Printf("[%s] %s  (%.2fs)\n", o.ID, o.Title, o.Elapsed.Seconds())
		fmt.Print(o.Table.String())
	}
	return firstErr
}
