// Command anonload drives a lockd lock service under load and reports
// latency and throughput, with a mutual-exclusion owner check inside
// every critical section. With -addr host:port (or a comma-separated
// cluster list) it loads a running anonlockd; without it, it serves an
// in-process lockd on loopback over a lock manager that -alg, -handles,
// -shards, -max-locks and -seed describe (-lease-ttl turns leases on)
// and loads that. Either way the run takes one path: lockd/client
// sessions, the same stats sweep, the same violation fold.
//
// The traffic comes from the repository's unified workload model: pass
// a full spec with -workload (inline JSON) or -workload-file (a JSON
// file; see internal/workload.Spec for the schema) to choose the key
// distribution (uniform, zipf, hotset, shifting-hotset), the arrival
// process (closed loop, or open-loop poisson/bursty at an offered
// rate), the op mix (blocking / try / deadline-bounded / crash), and
// the session profile. Without either flag the traffic is the plain
// closed loop: uniform keys, blocking acquires, one spin unit of
// critical section and one between cycles.
//
// Usage:
//
//	anonload -clients 64 -keys 32 -cycles 2000
//	anonload -addr 127.0.0.1:7117 -workload '{"keys":{"dist":"hotset","hot_keys":1,"hot_frac":0.8}}' -duration 10s
//	anonload -addr 127.0.0.1:7117 -proto binary -mux 16 -clients 64 -cycles 20000
//	anonload -workload '{"ops":{"timed":1,"timeout_ms":5}}' -clients 64 -keys 4       # per-acquire SLA
//	anonload -workload-file zipf-openloop.json -duration 5s
//	anonload -lease-ttl 2s -workload '{"ops":{"lock":0.95,"crash":0.05}}' -duration 5s
//	anonload -addr 127.0.0.1:7117 -heartbeat 500ms -workload '{"ops":{"lock":0.95,"crash":0.05}}' -duration 5s
//	anonload -workload '{"keys":{"dist":"zipf"},"arrival":{"process":"poisson","rate_per_sec":50000},"ops":{"timed":1,"timeout_ms":5}}' -duration 2s
//	anonload -json > load.json
//
// With deadline-bounded ops every acquire carries a deadline: attempts
// that cannot complete in time withdraw cleanly (the abortable-mutex
// back-out) and are reported as an abort count and rate rather than an
// error. Open-loop runs additionally report offered versus achieved
// throughput and shed arrivals. Crash ops need a leased server: on a
// lease-free one nothing would free the orphan, so the run fails.
//
// The JSON output is an array of {id, title, seconds, table} records
// (stats.Record) — the same shape anonsim -experiment -json emits. The
// command exits nonzero if any mutual-exclusion violation is observed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"anonmutex"
	"anonmutex/internal/loadgen"
	"anonmutex/internal/lockmgr"
	"anonmutex/internal/stats"
	"anonmutex/internal/workload"
	"anonmutex/lockd"
	"anonmutex/lockd/client"
	"anonmutex/lockd/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "anonload:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("anonload", flag.ContinueOnError)
	addr := fs.String("addr", "", "lockd address, or a comma-separated cluster address list (empty: serve an in-process lockd on loopback)")
	proto := fs.String("proto", "json", "wire protocol: json (newline-delimited, one session per socket) or binary (multiplexed frames)")
	mux := fs.Int("mux", 0, "logical sessions per socket, implies -proto binary (0: the spec's conns_per_socket, else one socket per client)")
	clients := fs.Int("clients", 64, "concurrent clients")
	keys := fs.Int("keys", 32, "distinct lock names")
	cycles := fs.Int("cycles", 2000, "total acquire/release cycles (0: run for -duration)")
	duration := fs.Duration("duration", 0, "wall-clock bound (0: run until -cycles)")
	workloadJSON := fs.String("workload", "", "inline workload-spec JSON (the unified traffic model; see internal/workload.Spec)")
	workloadFile := fs.String("workload-file", "", "workload-spec JSON file (same schema as -workload)")
	seed := fs.Uint64("seed", 1, "workload seed (overrides the spec's seed when set explicitly)")
	heartbeat := fs.Duration("heartbeat", 0, "background heartbeat interval per client session — keep under the server's lease TTL (0: none, or -lease-ttl/4 for the in-process server)")
	tolerateLoss := fs.Bool("tolerate-grant-loss", false, "count grants lost to fencing or node failure instead of failing the run (cluster failover workloads; exclusion is judged by the servers' counters)")
	leaseTTL := fs.Duration("lease-ttl", 0, "in-process server: run grants under leases with this TTL, enabling crash ops and fencing (0: leases off; with -addr the server's own TTL applies)")
	algName := fs.String("alg", "rmw", "in-process server: per-name lock algorithm, rw or rmw")
	handles := fs.Int("handles", 8, "in-process server: process handles per named lock")
	shards := fs.Int("shards", 16, "in-process server: lock-manager shards")
	maxLocks := fs.Int("max-locks", 1024, "in-process server: resident locks per shard")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON instead of text tables")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *duration > 0 && !flagSet(fs, "cycles") {
		*cycles = 0 // -duration alone means "run for that long"
	}

	spec := workload.Spec{BaseCS: 1, BaseRemainder: 1}
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
		var err error
		if spec, err = workload.ParseJSON(data); err != nil {
			return err
		}
		if flagSet(fs, "seed") {
			spec.Seed = *seed
		}
	}

	// One unified client serves every transport shape: sessions carry
	// crash ops and heartbeats themselves, and a multi-address list
	// makes them cluster-routed (redirects followed, ownership cached,
	// grants pinned to the node that issued them).
	opts := client.Options{Proto: client.ProtoJSON, Heartbeat: *heartbeat}
	perSocket := *mux
	if perSocket == 0 {
		perSocket = spec.ConnsPerSocket
	}
	if perSocket < 0 {
		return fmt.Errorf("-mux must be positive, got %d", perSocket)
	}
	switch *proto {
	case "binary":
	case "json":
		if flagSet(fs, "proto") && perSocket > 0 {
			return fmt.Errorf("-mux multiplexes the binary transport; it cannot be combined with -proto json")
		}
	default:
		return fmt.Errorf("unknown -proto %q (want json or binary)", *proto)
	}
	shape := "proto=json"
	if *proto == "binary" || perSocket > 0 {
		perSocket = max(perSocket, 1)
		spec.ConnsPerSocket = perSocket
		opts.Proto = client.ProtoBinary
		opts.ConnsPerSocket = perSocket
		shape = fmt.Sprintf("proto=binary mux=%d", perSocket)
	}
	cfg := loadgen.Config{
		Clients:           *clients,
		Keys:              *keys,
		Cycles:            *cycles,
		Duration:          *duration,
		Workload:          &spec,
		Seed:              *seed,
		TolerateGrantLoss: *tolerateLoss,
	}

	for _, a := range strings.Split(*addr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			opts.Addrs = append(opts.Addrs, a)
		}
	}
	if len(opts.Addrs) > 0 {
		return load(cfg, opts, "net "+strings.Join(opts.Addrs, ",")+" "+shape, *jsonOut)
	}

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
	srv := lockd.NewServer(mgr)
	srv.LeaseTTL = *leaseTTL
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Close()
		return err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	opts.Addrs = []string{ln.Addr().String()}
	if *leaseTTL > 0 && opts.Heartbeat == 0 {
		opts.Heartbeat = *leaseTTL / 4
	}
	label := "inproc " + shape
	if *leaseTTL > 0 {
		label += fmt.Sprintf(" lease-ttl=%v", *leaseTTL)
	}
	err = load(cfg, opts, label, *jsonOut)

	// The client has closed, so every session has ended; what the
	// shutdown revokes beyond that is lease orphans. A manager that
	// still will not close leaked a grant.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	errs := []error{err, srv.Shutdown(ctx), <-serveErr}
	if cerr := mgr.Close(); cerr != nil {
		errs = append(errs, fmt.Errorf("grants leaked: %w", cerr))
	}
	return errors.Join(errs...)
}

// load runs cfg's sessions on a client dialed with opts, then folds the
// servers' own cross-check — the authoritative violation count, summed
// across every reachable address, so a failover run's dead node stays
// out — into the report.
func load(cfg loadgen.Config, opts client.Options, label string, jsonOut bool) error {
	cl, err := client.Dial(opts)
	if err != nil {
		return err
	}
	defer cl.Close()
	cfg.NewLocker = func(int) (loadgen.Locker, error) { return cl.Open() }
	res, err := loadgen.Run(cfg)
	if err != nil {
		return err
	}
	res.Backend = label
	st, err := cl.Stats()
	if err != nil {
		return err
	}
	return report(jsonOut, res, serverTable(st), uint64(res.Violations)+st.Violations)
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

// report prints the run and the server's counters and fails on
// violations.
func report(jsonOut bool, res *loadgen.Result, backend *stats.Table, violations uint64) error {
	if jsonOut {
		if err := stats.WriteRecords(os.Stdout, []stats.Record{
			{ID: "LOAD", Title: "anonload run", Seconds: res.Seconds, Table: res.Table()},
			{ID: "LOAD-BACKEND", Title: backend.Title, Table: backend},
		}); err != nil {
			return err
		}
	} else {
		fmt.Print(res.Table().String())
		fmt.Println()
		fmt.Print(backend.String())
	}
	if violations > 0 {
		return fmt.Errorf("%d mutual-exclusion violations observed", violations)
	}
	return nil
}
