// Command anonload drives a named-lock backend under load and reports
// latency and throughput, with a mutual-exclusion owner check inside
// every critical section. It can hammer an in-process lock manager
// (-mode inproc, the default) or a running anonlockd service over TCP
// (-mode net -addr host:port).
//
// The traffic comes from the repository's unified workload model: pass
// a full spec with -workload (inline JSON) or -workload-file (a JSON
// file; see internal/workload.Spec for the schema) to choose the key
// distribution (uniform, zipf, hotset, shifting-hotset), the arrival
// process (closed loop, or open-loop poisson/bursty at an offered
// rate), the op mix (blocking / try / deadline-bounded), and the
// session profile. Without either flag the traffic is the plain closed
// loop: uniform keys, blocking acquires, one spin unit of critical
// section and one between cycles.
//
// Usage:
//
//	anonload -clients 64 -keys 32 -cycles 2000
//	anonload -mode net -addr 127.0.0.1:7117 -workload '{"keys":{"dist":"hotset","hot_keys":1,"hot_frac":0.8}}' -duration 10s
//	anonload -mode net -proto binary -mux 16 -clients 64 -cycles 20000
//	anonload -workload '{"ops":{"timed":1,"timeout_ms":5}}' -clients 64 -keys 4       # per-acquire SLA
//	anonload -workload-file zipf-openloop.json -duration 5s
//	anonload -mode net -heartbeat 500ms -workload '{"ops":{"lock":0.95,"crash":0.05}}' -duration 5s
//	anonload -workload '{"keys":{"dist":"zipf"},"arrival":{"process":"poisson","rate_per_sec":50000},"ops":{"timed":1,"timeout_ms":5}}' -duration 2s
//	anonload -json > load.json
//
// With deadline-bounded ops every acquire carries a deadline: attempts
// that cannot complete in time withdraw cleanly (the abortable-mutex
// back-out) and are reported as an abort count and rate rather than an
// error. Open-loop runs additionally report offered versus achieved
// throughput and shed arrivals.
//
// The JSON output is an array of {id, title, seconds, table} records —
// the same shape anonbench emits. The command exits nonzero if any
// mutual-exclusion violation is observed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"anonmutex"
	"anonmutex/internal/lease"
	"anonmutex/internal/loadgen"
	"anonmutex/internal/lockmgr"
	"anonmutex/internal/stats"
	"anonmutex/internal/workload"
	"anonmutex/lockd/client"
	"anonmutex/lockd/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "anonload:", err)
		os.Exit(1)
	}
}

// record matches anonbench's machine-readable result element.
type record struct {
	ID      string       `json:"id"`
	Title   string       `json:"title"`
	Seconds float64      `json:"seconds"`
	Table   *stats.Table `json:"table"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("anonload", flag.ContinueOnError)
	mode := fs.String("mode", "inproc", "backend: inproc (own lock manager) or net (a lockd service)")
	addr := fs.String("addr", "127.0.0.1:7117", "lockd address, or a comma-separated cluster address list (net mode)")
	proto := fs.String("proto", "json", "net-mode wire protocol: json (newline-delimited, one session per socket) or binary (multiplexed frames)")
	mux := fs.Int("mux", 0, "net mode: logical sessions per socket, implies -proto binary (0: the spec's conns_per_socket, else one socket per client)")
	clients := fs.Int("clients", 64, "concurrent clients")
	keys := fs.Int("keys", 32, "distinct lock names")
	cycles := fs.Int("cycles", 2000, "total acquire/release cycles (0: run for -duration)")
	duration := fs.Duration("duration", 0, "wall-clock bound (0: run until -cycles)")
	workloadJSON := fs.String("workload", "", "inline workload-spec JSON (the unified traffic model; see internal/workload.Spec)")
	workloadFile := fs.String("workload-file", "", "workload-spec JSON file (same schema as -workload)")
	seed := fs.Uint64("seed", 1, "workload seed (overrides the spec's seed when set explicitly)")
	heartbeat := fs.Duration("heartbeat", 0, "background heartbeat interval per client session — keep under the backend's lease TTL (0: no heartbeats)")
	tolerateLoss := fs.Bool("tolerate-grant-loss", false, "net mode: count grants lost to fencing or node failure instead of failing the run (cluster failover workloads; exclusion is judged by the servers' counters)")
	leaseTTL := fs.Duration("lease-ttl", 0, "inproc mode: run grants under a lease manager with this TTL, enabling crash ops and fencing (0: leases off; net mode takes the TTL from the server)")
	algName := fs.String("alg", "rmw", "per-name lock algorithm (inproc mode): rw or rmw")
	handles := fs.Int("handles", 8, "process handles per named lock (inproc mode)")
	shards := fs.Int("shards", 16, "lock-manager shards (inproc mode)")
	maxLocks := fs.Int("max-locks", 1024, "resident locks per shard (inproc mode)")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON instead of text tables")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *duration > 0 && !flagSet(fs, "cycles") {
		*cycles = 0 // -duration alone means "run for that long"
	}

	cfg := loadgen.Config{
		Clients:  *clients,
		Keys:     *keys,
		Cycles:   *cycles,
		Duration: *duration,
		Seed:     *seed,
	}
	switch {
	case *workloadJSON != "" && *workloadFile != "":
		return fmt.Errorf("-workload and -workload-file are mutually exclusive")
	case *workloadJSON != "" || *workloadFile != "":
		data := []byte(*workloadJSON)
		if *workloadFile != "" {
			var err error
			if data, err = os.ReadFile(*workloadFile); err != nil {
				return err
			}
		}
		spec, err := workload.ParseJSON(data)
		if err != nil {
			return err
		}
		if flagSet(fs, "seed") {
			spec.Seed = *seed
		}
		cfg.Workload = &spec
	default:
		cfg.Workload = &workload.Spec{BaseCS: 1, BaseRemainder: 1}
	}

	var (
		backendTable *stats.Table
		violations   uint64
	)
	switch *mode {
	case "inproc":
		alg, err := anonmutex.ParseAlgorithm(*algName)
		if err != nil {
			return err
		}
		mgr, err := lockmgr.New(lockmgr.Config{
			Shards:           *shards,
			Algorithm:        alg,
			HandlesPerLock:   *handles,
			MaxLocksPerShard: *maxLocks,
			Seed:             *seed,
		})
		if err != nil {
			return err
		}
		if *leaseTTL > 0 {
			// Lease-backed sessions: grants carry fencing tokens, crash
			// ops orphan keys that TTL expiry recovers, and each client
			// session heartbeats on its own ticker.
			hb := *heartbeat
			if hb == 0 {
				hb = *leaseTTL / 4
			}
			lm, err := lease.New(mgr, lease.Config{TTL: *leaseTTL})
			if err != nil {
				mgr.Close()
				return err
			}
			cfg.NewLocker = func(int) (loadgen.Locker, error) {
				return loadgen.NewLeaseLocker(lm, hb), nil
			}
			res, err := loadgen.Run(cfg)
			if err != nil {
				return err
			}
			lm.Close() // revokes crash orphans so the manager closes clean
			violations = uint64(res.Violations) + mgr.Violations()
			res.Backend = fmt.Sprintf("inproc lease-ttl=%v", *leaseTTL)
			backendTable = mgr.StatsTable()
			if err := mgr.Close(); err != nil {
				return err
			}
			return report(*jsonOut, res, backendTable, violations)
		}
		cfg.NewLocker = func(int) (loadgen.Locker, error) {
			return loadgen.NewManagerLocker(mgr), nil
		}
		res, err := loadgen.Run(cfg)
		if err != nil {
			return err
		}
		violations = uint64(res.Violations) + mgr.Violations()
		res.Backend = "inproc"
		backendTable = mgr.StatsTable()
		if err := mgr.Close(); err != nil {
			return err
		}
		return report(*jsonOut, res, backendTable, violations)
	case "net":
		var addrs []string
		for _, a := range strings.Split(*addr, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		perSocket := *mux
		if perSocket == 0 && cfg.Workload != nil {
			perSocket = cfg.Workload.ConnsPerSocket
		}
		if perSocket < 0 {
			return fmt.Errorf("-mux must be positive, got %d", perSocket)
		}
		useBinary := *proto == "binary" || perSocket > 0
		switch *proto {
		case "binary":
		case "json":
			if flagSet(fs, "proto") && perSocket > 0 {
				return fmt.Errorf("-mux multiplexes the binary transport; it cannot be combined with -proto json")
			}
		default:
			return fmt.Errorf("unknown -proto %q (want json or binary)", *proto)
		}
		// One unified client serves every transport shape: sessions carry
		// crash ops and heartbeats themselves, and a multi-address list
		// makes them cluster-routed (redirects followed, ownership
		// cached, grants pinned to the node that issued them).
		opts := client.Options{
			Addrs:     addrs,
			Proto:     client.ProtoJSON,
			Heartbeat: *heartbeat,
		}
		label := fmt.Sprintf("net %s proto=json", strings.Join(addrs, ","))
		if useBinary {
			if perSocket < 1 {
				perSocket = 1
			}
			cfg.ConnsPerSocket = perSocket
			opts.Proto = client.ProtoBinary
			opts.ConnsPerSocket = perSocket
			label = fmt.Sprintf("net %s proto=binary mux=%d", strings.Join(addrs, ","), perSocket)
		}
		cl, err := client.Dial(opts)
		if err != nil {
			return err
		}
		defer cl.Close()
		cfg.TolerateGrantLoss = *tolerateLoss
		cfg.NewLocker = func(int) (loadgen.Locker, error) {
			s, err := cl.Open()
			if err != nil {
				return nil, err
			}
			return s, nil
		}
		res, err := loadgen.Run(cfg)
		if err != nil {
			return err
		}
		res.Backend = label
		// The servers' own cross-check is the authoritative violation
		// count; fold it in via a final stats sweep (summed across every
		// reachable address — a failover run's dead node stays out).
		st, err := cl.Stats()
		if err != nil {
			return err
		}
		violations = uint64(res.Violations) + st.Violations
		return report(*jsonOut, res, serverTable(st), violations)
	default:
		return fmt.Errorf("unknown mode %q (want inproc or net)", *mode)
	}
}

func flagSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// serverTable renders a lockd stats snapshot as a table.
func serverTable(st wire.Stats) *stats.Table {
	t := &stats.Table{
		Title: "lockd server counters",
		Header: []string{"acquires", "releases", "waits", "aborts", "lease-timeouts",
			"try-fail", "creates", "evictions", "resident", "expired", "revoked",
			"fenced", "sessions", "streams", "violations"},
	}
	t.AddRow(st.Acquires, st.Releases, st.Waits, st.Aborts, st.LeaseTimeouts,
		st.TryFailures, st.LockCreates, st.Evictions, st.ResidentLocks, st.Expired,
		st.Revoked, st.FencedRejects, st.Sessions, st.Streams, st.Violations)
	return t
}

// report prints the run (and backend counters) and fails on violations.
func report(jsonOut bool, res *loadgen.Result, backend *stats.Table, violations uint64) error {
	if jsonOut {
		records := []record{{ID: "LOAD", Title: "anonload run", Seconds: res.Seconds, Table: res.Table()}}
		if backend != nil {
			records = append(records, record{ID: "LOAD-BACKEND", Title: backend.Title, Table: backend})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(records); err != nil {
			return err
		}
	} else {
		fmt.Print(res.Table().String())
		if backend != nil {
			fmt.Println()
			fmt.Print(backend.String())
		}
	}
	if violations > 0 {
		return fmt.Errorf("%d mutual-exclusion violations observed", violations)
	}
	return nil
}
