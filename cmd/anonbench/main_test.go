package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSingleExperiment(t *testing.T) {
	// T1 is instantaneous; the full suite is exercised by the
	// internal/experiments tests.
	if err := run([]string{"-experiment", "T1"}); err != nil {
		t.Fatal(err)
	}
}

// captureStdout runs f with os.Stdout redirected and returns what it
// wrote.
func captureStdout(t *testing.T, f func() error) []byte {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	done := make(chan []byte)
	go func() {
		buf := make([]byte, 0, 1<<16)
		tmp := make([]byte, 4096)
		for {
			n, err := r.Read(tmp)
			buf = append(buf, tmp[:n]...)
			if err != nil {
				break
			}
		}
		done <- buf
	}()
	ferr := f()
	w.Close()
	out := <-done
	if ferr != nil {
		t.Fatal(ferr)
	}
	return out
}

func TestRunJSONOutput(t *testing.T) {
	out := captureStdout(t, func() error {
		return run([]string{"-experiment", "T1", "-json"})
	})
	var results []struct {
		ID      string  `json:"id"`
		Title   string  `json:"title"`
		Seconds float64 `json:"seconds"`
		Table   struct {
			Title  string     `json:"title"`
			Header []string   `json:"header"`
			Rows   [][]string `json:"rows"`
			Notes  []string   `json:"notes"`
		} `json:"table"`
	}
	if err := json.Unmarshal(out, &results); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out)
	}
	if len(results) != 1 || results[0].ID != "T1" {
		t.Fatalf("unexpected results: %+v", results)
	}
	if len(results[0].Table.Rows) == 0 || len(results[0].Table.Header) == 0 {
		t.Fatalf("empty table in JSON output: %+v", results[0].Table)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-experiment", "nope"}); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := run([]string{"-qqq"}); err == nil {
		t.Error("bad flag accepted")
	}
}
