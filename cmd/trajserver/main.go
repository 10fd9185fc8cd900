// Command trajserver runs the moving-object tracking server: a TCP store
// with optional on-ingest trajectory compression.
//
// Usage:
//
//	trajserver [-addr host:port] [-compress spec] [-cell metres]
//
//	-addr string      listen address (default "127.0.0.1:7007")
//	-compress string  online compression spec, or none (default
//	                  "opwtr:30"); trajserver -h lists every algorithm that
//	                  can run online
//	-cell float       spatial index cell size in metres (default 1000)
//	-index string     spatiotemporal index: grid or rtree (default "grid")
//	-shards int       store shards (object-ID hash partitions, each with its
//	                  own lock and index segment), rounded up to a power of
//	                  two; 0 selects max(8, 2×GOMAXPROCS)
//	-wal string       write-ahead log path for durability ("" = in-memory)
//	-wal-sync int     records between WAL fsyncs; 0 syncs every append, so
//	                  an OK reply implies the sample is on stable storage
//	                  (default 64)
//	-max-conns int    connection cap; excess connections get one "ERR busy"
//	                  line and are closed (0 = unlimited)
//	-sub-buf int      per-subscriber ring capacity for SUBSCRIBE feeds; a
//	                  saturated ring applies the feed's slow-consumer
//	                  policy (0 = default 256)
//	-http string      observability listen address serving /metrics
//	                  (Prometheus text format) and /debug/pprof/*
//	                  ("" = disabled)
//	-seal-eps float   cold-tier error bound in metres: EVICT seals aged
//	                  samples into quantized blocks instead of dropping
//	                  them, and SEAL moves them explicitly (0 = no cold
//	                  tier, eviction drops)
//	-seal-block int   target points per sealed block (0 = default 256)
//	-replicate-from string
//	                  primary address to replicate from; the node starts as
//	                  a read-only follower (requires -wal; PROMOTE flips it
//	                  to primary)
//	-repl-ack string  replication acknowledgement mode when this node is a
//	                  primary: "primary" (async; lagging followers are shed)
//	                  or "follower" (an append is acknowledged only after a
//	                  follower has fsynced it) (default "primary")
//	-repl-max-lag int in -repl-ack=primary mode, disconnect a follower more
//	                  than this many records behind (0 = never shed)
//	                  (default 4096)
//
// On SIGINT/SIGTERM the server drains: in-flight commands finish, then
// the WAL seals and closes. SIGKILL is survivable by design — recovery
// replays the log; see cmd/trajtorture.
//
// Protocol (newline-delimited, see internal/server):
//
//	APPEND <id> <t> <x> <y>
//	MAPPEND <id> <n>        (followed by n "<t> <x> <y>" lines: one batched
//	                        append, one "OK appended=<n>" reply — the bulk
//	                        ingest fast path; commands may be pipelined)
//	POSITION <id> <t>
//	SNAPSHOT <id>
//	QUERY <minx> <miny> <maxx> <maxy> <t0> <t1>
//	QUERYRANGE <minx> <miny> <maxx> <maxy> <t0> <t1>
//	NEAREST <x> <y> <t> <k>
//	SEAL <t>
//	SUBSCRIBE <id|*> [spec] [policy]
//	SUBSCRIBE BOX <minx> <miny> <maxx> <maxy> [spec] [policy]
//	                        (live feed; policy is drop-newest, drop-oldest,
//	                        or disconnect — what a saturated feed does)
//	IDS | STATS | PING | QUIT
//
// Try it:
//
//	go run ./cmd/trajserver &
//	printf 'APPEND car 0 0 0\nAPPEND car 10 100 0\nPOSITION car 5\nQUIT\n' | nc 127.0.0.1 7007
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/compress"
	"repro/internal/metrics"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/stream"
	"repro/internal/wal"
)

// serveHTTP starts the observability endpoint: Prometheus exposition at
// /metrics and the stdlib pprof handlers at /debug/pprof/*. A private mux
// keeps the handlers off http.DefaultServeMux.
func serveHTTP(addr string) (net.Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", metrics.Handler(metrics.Default()))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() {
		if err := http.Serve(l, mux); err != nil {
			log.Printf("http: %v", err)
		}
	}()
	return l, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("trajserver: ")

	var (
		addr      = flag.String("addr", "127.0.0.1:7007", "listen address")
		compSpec  = flag.String("compress", "opwtr:30", "online compression spec: none, or one of\n"+compress.Help(true))
		cell      = flag.Float64("cell", 1000, "spatial index cell size in metres")
		indexName = flag.String("index", "grid", "spatiotemporal index: grid or rtree")
		shards    = flag.Int("shards", 0, "store shards, rounded up to a power of two (0 = max(8, 2×GOMAXPROCS))")
		walPath   = flag.String("wal", "", "write-ahead log path for durability (empty = in-memory only)")
		walSync   = flag.Int("wal-sync", 64, "records between WAL fsyncs (0 = fsync every append)")
		maxConns  = flag.Int("max-conns", 0, "connection cap; excess connections are shed with ERR busy (0 = unlimited)")
		subBuf    = flag.Int("sub-buf", 0, "per-subscriber ring capacity for SUBSCRIBE feeds (0 = default 256)")
		httpAddr  = flag.String("http", "", "observability listen address for /metrics and /debug/pprof (empty = disabled)")
		sealEps   = flag.Float64("seal-eps", 0, "cold-tier error bound in metres; eviction seals instead of drops (0 = no cold tier)")
		sealBlock = flag.Int("seal-block", 0, "target points per sealed block (0 = default)")
		replFrom  = flag.String("replicate-from", "", "primary address to replicate from; start as a read-only follower (requires -wal)")
		replAck   = flag.String("repl-ack", "primary", `replication ack mode: "primary" (async) or "follower" (ack after a follower fsync)`)
		replLag   = flag.Uint64("repl-max-lag", 4096, "in -repl-ack=primary mode, shed a follower more than this many records behind (0 = never)")
	)
	flag.Parse()

	factory, err := stream.ParseFactory(*compSpec)
	if err != nil {
		log.Fatal(err)
	}
	var index store.IndexKind
	switch *indexName {
	case "grid":
		index = store.IndexGrid
	case "rtree":
		index = store.IndexRTree
	default:
		log.Fatalf("unknown index %q (want grid or rtree)", *indexName)
	}
	opts := store.Options{
		NewCompressor: factory, CellSize: *cell, Index: index, Shards: *shards,
		SealEps: *sealEps, SealBlockPoints: *sealBlock,
	}

	var backend server.Backend
	var durable *wal.DurableStore
	var st *store.Store
	if *walPath != "" {
		durable, err = wal.OpenDurable(*walPath, opts)
		if err != nil {
			log.Fatal(err)
		}
		backend = durable
		//lint:allow mutexguard single-threaded setup: no goroutine shares the store until Serve starts
		st = durable.Store
		durable.SetSyncEvery(*walSync)
		log.Printf("durable: write-ahead log at %s (sync every %d records)", *walPath, *walSync)
	} else {
		st = store.New(opts)
		backend = st
	}
	srv := server.New(backend)
	//lint:allow mutexguard single-threaded setup: Serve has not started, no connection can race this write
	srv.MaxConns = *maxConns
	srv.SubBuf = *subBuf
	srv.WriteTimeout = 30 * time.Second

	mode, ok := repl.ParseMode(*replAck)
	if !ok {
		log.Fatalf("unknown -repl-ack %q (want primary or follower)", *replAck)
	}
	var follower *repl.Follower
	if durable != nil {
		// Any WAL-backed node can serve REPLICATE: replication streams the
		// durable log, so it exists exactly when the log does.
		srv.Repl = repl.NewPrimary(durable, repl.Options{Mode: mode, MaxLag: *replLag})
		if *replFrom != "" {
			follower = repl.StartFollower(durable, *replFrom, repl.FollowerOptions{})
			srv.Follower = follower
			log.Printf("replicating from %s (read-only until PROMOTE)", *replFrom)
		} else if mode == repl.AckFollower {
			log.Printf("repl-ack=follower: appends acknowledged only after a follower fsync")
		}
	} else if *replFrom != "" {
		log.Fatal("-replicate-from requires -wal: a follower applies the stream through its own log")
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on %s (compression %s, %d store shards)", l.Addr(), *compSpec, st.NumShards())
	if *sealEps > 0 {
		log.Printf("cold tier: sealing evicted history into quantized blocks (eps %g m)", *sealEps)
	}

	if *httpAddr != "" {
		hl, err := serveHTTP(*httpAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			_ = hl.Close() // best effort: the process is exiting
		}()
		log.Printf("metrics on http://%s/metrics (pprof at /debug/pprof/)", hl.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		log.Print("draining")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}()

	if err := srv.Serve(l); err != server.ErrServerClosed {
		log.Fatal(err)
	}
	if follower != nil {
		follower.Stop()
	}
	if durable != nil {
		if err := durable.Close(); err != nil {
			log.Printf("closing WAL: %v", err)
		}
	}
	stats := st.Stats()
	log.Printf("final: %d objects, %d raw points, %d retained (%.1f%% compression)",
		stats.Objects, stats.RawPoints, stats.RetainedPoints, stats.CompressionPct)
}
