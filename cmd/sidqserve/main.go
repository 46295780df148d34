// Command sidqserve runs the sidq quality-management middleware as an
// HTTP service (see internal/server for the endpoint contract, and
// internal/session for the streaming-session engine behind the
// /v1/stream and /v1/history routes):
//
//	sidqserve -addr :8080
//	curl -s localhost:8080/v1/taxonomy
//	sidqsim -n 5 | curl -s --data-binary @- localhost:8080/v1/assess
//
// Resilience flags: -max-body caps request bodies, -max-inflight
// bounds concurrent requests (excess load is shed with 503), and
// -request-timeout is each request's deadline: a body still arriving
// then, or a clean still running, is answered 503, while an engine call
// already begun (an ingest's fsync) answers what it did. A SIGINT/SIGTERM
// shutdown drains in order: /v1/readyz flips to 503 and new work is
// rejected with 503 "draining" while in-flight requests (ingest acks
// included) run to completion, the 503 window is held open for
// -drain-linger so late clients see an orderly rejection instead of a
// connection reset, and only then does the listener close; the whole
// sequence shares the -grace budget.
//
// Observability: GET /v1/metrics serves the Prometheus text
// exposition (always on; it bypasses the limiter and timeout), and
// -pprof additionally mounts net/http/pprof under /debug/pprof/.
//
// Streaming ingestion (POST /v1/stream/open → ingest → results) is
// bounded by -stream-max-sessions and evicted after -stream-idle-ttl;
// -stream-lateness sets the default reorder watermark. -network loads
// a road network (roadnet CSV: node,x,y / edge,from,to,speedcap rows)
// and turns on online map matching for streamed points.
//
// Durability: -data <dir> turns on the write-ahead log — every
// accepted ingest chunk is persisted before it is acknowledged,
// session state is snapshotted every -snapshot-every chunks, and a
// restart (including kill -9) recovers every acknowledged row and
// serves GET /v1/history/range from the on-disk segments. -fsync
// picks the durability point: always (fsync before every ack), batch
// (background fsync, the default), or off (benchmarks only). Verify a
// data directory offline with "sidqstore verify <dir>".
//
// Retention: -retain bounds the WAL on disk. A background loop drops
// segments whose records are older than the window once no live
// session still needs them for recovery — lagging sessions are
// checkpointed (compacted) first so they cannot pin old segments —
// and trims the history index to match. /v1/history/range reports the
// retained floor in the X-Sidq-History-Min-Seq header. -segment-bytes
// tunes the truncation granularity.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sidq/internal/roadnet"
	"sidq/internal/server"
	"sidq/internal/store"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		maxBody     = flag.Int64("max-body", 32<<20, "request body cap in bytes")
		maxInFlight = flag.Int("max-inflight", 64, "max concurrent requests before shedding with 503")
		reqTimeout  = flag.Duration("request-timeout", 30*time.Second, "per-request deadline")
		grace       = flag.Duration("grace", 10*time.Second, "graceful shutdown drain period")
		drainLinger = flag.Duration("drain-linger", 500*time.Millisecond, "after in-flight requests drain, keep answering new requests with 503 for this long before closing the listener")
		pprofOn     = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (opt-in)")
		quiet       = flag.Bool("quiet", false, "discard the per-request access log (load-harness runs)")

		networkPath    = flag.String("network", "", "road network CSV; enables online map matching for streamed points")
		maxSessions    = flag.Int("stream-max-sessions", 32, "open streaming sessions before shedding with 429")
		streamIdleTTL  = flag.Duration("stream-idle-ttl", 5*time.Minute, "idle streaming sessions are evicted after this")
		streamLateness = flag.Float64("stream-lateness", 5, "default event-time lateness bound (seconds) for stream reordering")

		dataDir     = flag.String("data", "", "durable data directory; empty runs memory-only")
		fsyncFlag   = flag.String("fsync", "batch", "WAL durability point: always, batch, or off")
		snapEvery   = flag.Int("snapshot-every", 16, "checkpoint session state into the WAL every N chunks")
		retain      = flag.Duration("retain", 0, "drop WAL data older than this once no live session needs it for recovery (0 keeps everything)")
		retainEvery = flag.Duration("retain-every", 0, "retention pass period (default retain/4, clamped to 1s..30s)")
		segBytes    = flag.Int64("segment-bytes", 0, "WAL segment roll size in bytes (default 64 MiB; retention drops whole segments, so smaller segments bound disk tighter)")
	)
	flag.Parse()

	streamCfg := server.StreamConfig{
		MaxSessions: *maxSessions,
		IdleTTL:     *streamIdleTTL,
		Lateness:    *streamLateness,
	}
	if *networkPath != "" {
		f, err := os.Open(*networkPath)
		if err != nil {
			log.Fatalf("sidqserve: open network: %v", err)
		}
		g, err := roadnet.ReadCSV(f)
		f.Close()
		if err != nil {
			log.Fatalf("sidqserve: load network %s: %v", *networkPath, err)
		}
		streamCfg.Network = g
		log.Printf("sidqserve: loaded road network %s (%d nodes, %d edges)",
			*networkPath, g.NumNodes(), g.NumEdges())
	}

	cfg := server.Config{
		MaxBodyBytes:   *maxBody,
		MaxInFlight:    *maxInFlight,
		RequestTimeout: *reqTimeout,
		Stream:         streamCfg,
	}
	if *quiet {
		cfg.Logger = server.DiscardLogger()
	}
	if *dataDir != "" {
		mode, err := store.ParseFsyncMode(*fsyncFlag)
		if err != nil {
			log.Fatalf("sidqserve: -fsync: %v", err)
		}
		cfg.Durability = server.DurabilityConfig{
			Dir:           *dataDir,
			Fsync:         mode,
			SnapshotEvery: *snapEvery,
			SegmentBytes:  *segBytes,
			Retain:        *retain,
			RetainEvery:   *retainEvery,
		}
	}
	svc, err := server.OpenService(cfg)
	if err != nil {
		log.Fatalf("sidqserve: open %s: %v", *dataDir, err)
	}
	defer svc.Close()
	if *dataDir != "" {
		log.Printf("sidqserve: durable data in %s (fsync=%s, snapshot-every=%d, retain=%s)",
			*dataDir, *fsyncFlag, *snapEvery, *retain)
	}
	handler := http.Handler(svc)
	// SIDQ_TEST_DELAY injects a fixed per-request latency so the SLO
	// gate (make load-check) can prove it catches a regression. It is a
	// test hook, never a production knob — hence an env var, not a flag,
	// and a loud warning.
	if d := os.Getenv("SIDQ_TEST_DELAY"); d != "" {
		delay, err := time.ParseDuration(d)
		if err != nil {
			log.Fatalf("sidqserve: SIDQ_TEST_DELAY: %v", err)
		}
		log.Printf("sidqserve: WARNING: SIDQ_TEST_DELAY=%s injects artificial latency into every request (SLO-gate testing only)", delay)
		inner := handler
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(delay)
			inner.ServeHTTP(w, r)
		})
	}
	if *pprofOn {
		// Profiling endpoints mount outside the service's middleware
		// stack so the limiter and timeout cannot starve a profile of a
		// wedged process — the moment profiling is for.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("sidqserve: listening on %s (max-body=%d max-inflight=%d request-timeout=%s)",
		*addr, *maxBody, *maxInFlight, *reqTimeout)

	select {
	case err := <-errCh:
		log.Fatalf("sidqserve: %v", err)
	case <-ctx.Done():
	}

	// Drain, in order: (1) StartDrain fails readiness and rejects new
	// work with 503 while the listener stays open — late clients see an
	// orderly rejection, not a connection reset; (2) AwaitIdle lets
	// every in-flight request (ingest acks included) run to completion;
	// (3) a short linger keeps the 503 window open so load balancers
	// and retrying clients observe the drain; (4) only then does
	// Shutdown close the listener. Everything shares the -grace budget.
	log.Printf("sidqserve: shutdown signal received, draining for up to %s", *grace)
	deadline := time.Now().Add(*grace)
	svc.StartDrain()
	idleCtx, cancelIdle := context.WithDeadline(context.Background(), deadline)
	idle := svc.AwaitIdle(idleCtx)
	cancelIdle()
	if !idle {
		log.Printf("sidqserve: drain grace expired with requests still in flight")
	}
	if lg := *drainLinger; lg > 0 {
		if until := time.Until(deadline); until < lg {
			lg = until
		}
		if lg > 0 {
			time.Sleep(lg)
		}
	}
	shutdownCtx, cancel := context.WithDeadline(context.Background(), deadline.Add(time.Second))
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("sidqserve: forced shutdown: %v", err)
		_ = srv.Close()
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("sidqserve: %v", err)
	}
	log.Printf("sidqserve: stopped")
}
