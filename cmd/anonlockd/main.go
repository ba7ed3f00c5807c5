// Command anonlockd serves the lockd network lock service: named locks
// backed by anonymous-register mutexes, sharded and lease-pooled by
// internal/lockmgr, over the TCP protocol in package lockd. Both wire
// formats are served on the one port: clients leading with the binary
// preamble (lockd/wire) get the multiplexed framed protocol, everything
// else is newline-JSON — no configuration needed on either side.
//
// Usage:
//
//	anonlockd                               # serve on :7117
//	anonlockd -addr 127.0.0.1:9000          # explicit bind address
//	anonlockd -alg rw -handles 4 -shards 8  # lock-manager tuning
//	anonlockd -max-wait 50ms                # abort any acquire past 50ms
//	anonlockd -max-frame 262144             # cap binary frames at 256 KiB
//	anonlockd -lease-ttl 2s                 # crash safety: fencing tokens +
//	                                        # TTL expiry of silent holders
//	anonlockd -lease-ttl 2s -data-dir /var/lib/anonlockd \
//	          -fsync always                 # durable: grants survive kill -9
//	                                        # and recover on the next start
//	anonlockd -node-id a -gossip-addr :7118 \
//	          -join host-b:7118,host-c:7118 \
//	          -lease-ttl 2s                 # clustered: gossip membership,
//	                                        # per-key ownership, redirects
//	anonlockd -node-id a -gossip-addr :7118 \
//	          -join host-b:7118 -lease-ttl 2s \
//	          -proxy                        # proxy mode: forward foreign-key
//	                                        # ops to their owner instead of
//	                                        # redirecting the client
//
// SIGINT/SIGTERM shut the server down gracefully: the listener closes,
// sessions get a drain window, every session grant is released, and the
// lease journal (when -data-dir is set) is synced and closed — a clean
// restart recovers nothing, while a killed process's next start
// recovers every grant that was live.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"anonmutex"
	"anonmutex/internal/cluster"
	"anonmutex/internal/lockmgr"
	"anonmutex/lockd"
	"anonmutex/lockd/client"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "anonlockd:", err)
		os.Exit(1)
	}
}

// run serves until SIGINT or SIGTERM, then drains.
func run(args []string) error {
	fs := flag.NewFlagSet("anonlockd", flag.ContinueOnError)
	addr := fs.String("addr", ":7117", "listen address")
	algName := fs.String("alg", "rmw", "per-name lock algorithm: rw or rmw")
	handles := fs.Int("handles", 8, "process handles per named lock (max concurrent competitors)")
	registers := fs.Int("registers", 0, "anonymous registers per lock (0: the smallest legal size above 1, 11 at -handles 8; rmw also runs on 1)")
	shards := fs.Int("shards", 16, "lock-manager shards")
	maxLocks := fs.Int("max-locks", 1024, "resident locks per shard before LRU eviction")
	seed := fs.Uint64("seed", 1, "anonymity-adversary seed")
	maxWait := fs.Duration("max-wait", 0, "server-side cap on any acquire wait; longer waits abort cleanly (0: unlimited)")
	maxFrame := fs.Int("max-frame", 0, "byte cap on one binary frame; an oversized frame is a protocol error (0: the built-in default)")
	leaseTTL := fs.Duration("lease-ttl", 0, "run grants under leases: acquires carry fencing tokens and holders that stop heartbeating for this long are forcibly revoked (0: leases off)")
	dataDir := fs.String("data-dir", "", "directory for the durable lease journal: grants survive kill -9 and the next start on the same directory recovers them (needs -lease-ttl)")
	fsyncPolicy := fs.String("fsync", "always", "journal fsync policy: always (commit before every ack), interval (background fsync every -fsync-interval), off (OS page cache only)")
	fsyncEvery := fs.Duration("fsync-interval", 0, "background fsync period under -fsync interval (0: the journal default)")
	drain := fs.Duration("drain", 5*time.Second, "graceful-shutdown drain window")
	nodeID := fs.String("node-id", "", "this node's cluster identity; setting it (or any cluster flag) turns clustering on")
	gossipAddr := fs.String("gossip-addr", "", "UDP address for membership gossip (clustered mode)")
	join := fs.String("join", "", "comma-separated peer gossip addresses to join through; peers need not be up yet")
	gossipEvery := fs.Duration("gossip-interval", 0, "membership heartbeat period (0: the cluster default)")
	advertise := fs.String("advertise", "", "lock-service address redirects send clients to (default: the listen address)")
	proxy := fs.Bool("proxy", false, "clustered mode: forward ops for keys this node does not own to their owner over pooled inter-node connections, answering the client in one round trip instead of redirecting it")
	if err := fs.Parse(args); err != nil {
		return err
	}
	clustered := *nodeID != "" || *gossipAddr != "" || *join != "" || *advertise != ""
	if clustered {
		if *nodeID == "" || *gossipAddr == "" {
			return fmt.Errorf("clustered serving needs both -node-id and -gossip-addr")
		}
		if *leaseTTL <= 0 {
			return fmt.Errorf("clustered serving needs -lease-ttl: lease handoff is what makes ownership moves safe")
		}
	}
	if *proxy && !clustered {
		return fmt.Errorf("-proxy needs clustered serving: it forwards between cluster members")
	}
	if *dataDir != "" && *leaseTTL <= 0 {
		return fmt.Errorf("-data-dir needs -lease-ttl: the journal records lease transitions")
	}

	alg, err := anonmutex.ParseAlgorithm(*algName)
	if err != nil {
		return err
	}
	mgr, err := lockmgr.New(lockmgr.Config{
		Shards:           *shards,
		Algorithm:        alg,
		HandlesPerLock:   *handles,
		Registers:        *registers,
		MaxLocksPerShard: *maxLocks,
		Seed:             *seed,
	})
	if err != nil {
		return err
	}
	// Catch the signals before announcing the address: a supervisor may
	// send SIGTERM as soon as it reads the serving line.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("anonlockd: serving on %s (alg=%s handles=%d shards=%d)\n",
		ln.Addr(), alg, *handles, *shards)

	srv := lockd.NewServer(mgr)
	srv.MaxWait = *maxWait
	srv.MaxFrameBytes = *maxFrame
	srv.LeaseTTL = *leaseTTL
	if *leaseTTL > 0 {
		fmt.Printf("anonlockd: leases on (ttl=%v)\n", *leaseTTL)
	}
	if *dataDir != "" {
		srv.Durability = lockd.Durability{Dir: *dataDir, Fsync: *fsyncPolicy, FsyncInterval: *fsyncEvery}
		fmt.Printf("anonlockd: durability on (dir=%s fsync=%s)\n", *dataDir, *fsyncPolicy)
	}
	if clustered {
		adv := *advertise
		if adv == "" {
			adv = ln.Addr().String()
		}
		var seeds []string
		for _, s := range strings.Split(*join, ",") {
			if s = strings.TrimSpace(s); s != "" {
				seeds = append(seeds, s)
			}
		}
		node, err := cluster.Start(cluster.Config{
			ID:         *nodeID,
			Addr:       adv,
			GossipAddr: *gossipAddr,
			Seeds:      seeds,
			Interval:   *gossipEvery,
			Logf: func(format string, args ...any) {
				fmt.Printf("anonlockd: "+format+"\n", args...)
			},
		})
		if err != nil {
			ln.Close()
			return err
		}
		defer node.Close()
		srv.Cluster = node
		srv.Proxy = *proxy
		fmt.Printf("anonlockd: cluster node %s gossiping on %s (seeds: %s)\n",
			*nodeID, node.GossipAddr(), *join)
		if *proxy {
			fmt.Println("anonlockd: proxy mode on (foreign-key ops forwarded to their owners)")
		}
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	if *dataDir != "" {
		// Journal recovery runs inside Serve before the accept loop, so
		// the first successful ping means the recovered count is final.
		// The probe is a real protocol ping: the kernel accepts TCP into
		// the listen backlog long before Serve finishes recovering.
		go func() {
			deadline := time.Now().Add(10 * time.Second)
			for time.Now().Before(deadline) {
				c, err := client.DialConn(ln.Addr().String())
				if err == nil {
					err = c.Ping()
					c.Close()
					if err == nil {
						fmt.Printf("anonlockd: recovered %d leases from %s\n", srv.Recovered(), *dataDir)
						return
					}
				}
				time.Sleep(10 * time.Millisecond)
			}
		}()
	}

	select {
	case err := <-serveErr:
		return err
	case s := <-sig:
		fmt.Printf("anonlockd: %v, draining\n", s)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-serveErr; err != nil {
		return err
	}
	fmt.Print(mgr.StatsTable().String())
	return mgr.Close()
}
