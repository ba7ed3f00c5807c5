// Command anonbench runs the reproduction experiment suite: one
// experiment per paper artifact (Table I, Figures 1-2, Table II,
// Theorem 5) plus the quantitative additions and the scenario-registry
// sweep, printing paper-style tables or machine-readable JSON.
//
// Usage:
//
//	anonbench                    # run everything
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

	// Text streams each table as its experiment finishes; JSON collects
	// them, since it must be one document.
	var results []resultJSON
	for i, e := range toRun {
		start := time.Now()
		tbl, err := e.Run()
		if err != nil {
			return fmt.Errorf("experiment %s: %w", e.ID, err)
		}
		elapsed := time.Since(start).Seconds()
		if *jsonOut {
			results = append(results, resultJSON{ID: e.ID, Title: e.Title, Seconds: elapsed, Table: tbl})
			continue
		}
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("[%s] %s  (%.2fs)\n", e.ID, e.Title, elapsed)
		fmt.Print(tbl.String())
	}
	if !*jsonOut {
		return nil
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}
