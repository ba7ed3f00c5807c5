package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRunInproc(t *testing.T) {
	cases := [][]string{
		{"-clients", "4", "-keys", "4", "-cycles", "80"},
		{"-clients", "4", "-keys", "4", "-cycles", "80", "-workload", `{"keys":{"dist":"hotset","hot_keys":1,"hot_frac":0.8}}`, "-alg", "rw", "-handles", "2"},
		{"-clients", "2", "-keys", "2", "-cycles", "40", "-workload", `{"profile":"bursty"}`, "-json"},
		{"-clients", "2", "-keys", "2", "-duration", "50ms"},
		{"-clients", "2", "-keys", "4", "-cycles", "40",
			"-workload", `{"keys":{"dist":"zipf","zipf_s":1.2}}`},
		{"-clients", "2", "-keys", "4", "-cycles", "60", "-json",
			"-workload", `{"keys":{"dist":"hotset"},"arrival":{"process":"poisson","rate_per_sec":20000},"ops":{"timed":1,"timeout_ms":50}}`},
	}
	for _, args := range cases {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestRunWorkloadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spec.json")
	spec := `{
		"seed": 9,
		"keys": {"dist": "zipf", "zipf_s": 1.1},
		"arrival": {"process": "bursty", "rate_per_sec": 30000, "burst_size": 4},
		"ops": {"timed": 1, "timeout_ms": 20}
	}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-clients", "2", "-keys", "4", "-cycles", "60", "-workload-file", path}); err != nil {
		t.Errorf("run(-workload-file): %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-mode", "quantum"},
		{"-workload", `{"keys":{"dist":"pareto"}}`, "-cycles", "10"}, // unknown key distribution
		{"-alg", "greedy", "-cycles", "10"},
		{"-clients", "-1", "-cycles", "10"},
		{"-mode", "net", "-addr", "127.0.0.1:1", "-clients", "1", "-cycles", "1"}, // nothing listening
		{"-workload", `{"profile":"pareto"}`, "-cycles", "10"},                    // unknown profile fails loudly
		{"-workload", `{"keyz":{}}`, "-cycles", "10"},                             // unknown field fails loudly
		{"-workload", `{}`, "-workload-file", "x.json"},                           // mutually exclusive
		{"-workload-file", "/no/such/spec.json", "-cycles", "10"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}
