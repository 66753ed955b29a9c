// Command fhserved is the campaign-serving daemon: an HTTP front-end
// over the campaign engine with a bounded job queue, a spec-hash
// result cache, streaming progress, and Prometheus metrics.
//
// Usage:
//
//	fhserved -addr :8418 -data results/server -jobs 1
//
// Submit campaigns with cmd/fhcampaign's -addr flag or plain curl:
//
//	curl -d '{"benchmarks":["bzip2"],"schemes":["faulthound"]}' \
//	    localhost:8418/v1/campaigns
//
// Schemes are registry specs: parameters attach with '?'
// ("faulthound?tcam=16,delay=6") and sweep values with '|' fan out
// into cells. GET /v1/schemes lists every scheme with its typed
// parameters; an unknown or malformed spec is rejected with a 400
// carrying the known-scheme list. See docs/SCHEMES.md.
//
// Identical specs deduplicate: a spec already queued or running
// attaches to the in-flight job; one already completed is served from
// the on-disk cache. On SIGTERM the daemon drains — running campaigns
// cancel promptly, their journals stay on disk, and the next start
// rescans -data and resumes every unfinished job. See docs/SERVER.md
// and docs/OBSERVABILITY.md.
//
// Cluster modes (docs/CLUSTER.md): -coordinator accepts the same API
// but shards each campaign's injections across joined workers, merging
// the streamed results into a bundle byte-identical to a single-node
// run; it routes leases by one fixed rule that keeps each worker to the
// cells it already holds (docs/CLUSTER.md, "Lease routing"). -join
// <addr> turns the daemon into a worker that registers with a
// coordinator and executes leased descriptor ranges (while still
// serving its own front door):
//
//	fhserved -coordinator -addr :8418 -data results/coord
//	fhserved -join host:8418 -addr :8419 -data results/w1
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"faulthound/internal/buildinfo"
	"faulthound/internal/cluster"
	"faulthound/internal/fault"
	"faulthound/internal/harness"
	"faulthound/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", ":8418", "HTTP listen address")
		debugAddr = flag.String("debug-addr", "", "optional listen address for net/http/pprof (e.g. localhost:6060); empty disables it")
		data      = flag.String("data", "results/server", "data root: one directory per job, named by spec hash")
		jobs      = flag.Int("jobs", 1, "campaigns executing concurrently")
		workers   = flag.Int("workers", 0, "injection workers per campaign (0 = GOMAXPROCS); results do not depend on it")
		queue     = flag.Int("queue", 64, "pending-job queue depth (overflow is rejected with a structured 429)")
		maxInj    = flag.Int("max-injections", 0, "reject specs above this total injection count (0 = unlimited)")
		quick     = flag.Bool("quick", false, "scaled-down default fault config for smoke testing")
		verbose   = flag.Bool("v", false, "debug-level logging (every job state transition)")
		version   = flag.Bool("version", false, "print build identity and exit")

		// Cluster fabric (docs/CLUSTER.md).
		coordinator = flag.Bool("coordinator", false, "shard submitted campaigns across joined workers instead of running them locally")
		join        = flag.String("join", "", "worker mode: register with the coordinator at this address and execute leased ranges")
		advertise   = flag.String("advertise", "", "worker mode: base URL the coordinator dials back (default: derived from -addr)")
		leaseTTL    = flag.Duration("lease-ttl", cluster.DefaultLeaseTTL, "coordinator: re-lease a range after this much stream silence")
		rangeSize   = flag.Int("range-size", cluster.DefaultRangeSize, "coordinator: max injection descriptors per lease")
		slots       = flag.Int("slots", 2, "worker mode: shard leases executed concurrently")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Generator())
		return
	}
	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	fatal := func(msg string, args ...any) {
		log.Error(msg, args...)
		os.Exit(1)
	}
	if *coordinator && *join != "" {
		fatal("-coordinator and -join are mutually exclusive")
	}

	opts := harness.DefaultOptions()
	if *quick {
		opts = harness.QuickOptions()
	}
	// One prepared-golden-state cache serves both the front door and
	// leased shards, so a cell warmed by either path is warm for both.
	cache := fault.NewPreparedCache()
	cfg := server.Config{
		Root:          *data,
		Factory:       opts.CampaignFactory(),
		BaseFault:     opts.Fault,
		Jobs:          *jobs,
		Workers:       *workers,
		QueueDepth:    *queue,
		MaxInjections: *maxInj,
		Log:           log,
		Prepared:      cache,
		Timing:        opts.TimingRunner(),
	}

	var (
		coord  *cluster.Coordinator
		worker *cluster.Worker
		joiner *cluster.Joiner
	)
	switch {
	case *coordinator:
		reg := cluster.NewRegistry(nil)
		coord = &cluster.Coordinator{
			Registry:  reg,
			LeaseTTL:  *leaseTTL,
			RangeSize: *rangeSize,
			Log:       log,
		}
		cfg.Role = "coordinator"
		cfg.Runner = coord.RunCampaign
		cfg.Ready = func() (bool, map[string]any) {
			n := reg.AliveCount()
			return n > 0, map[string]any{"workers_alive": n}
		}
	case *join != "":
		coordURL := baseURL(*join)
		self := *advertise
		if self == "" {
			self = selfURL(*addr)
		} else {
			self = baseURL(self)
		}
		worker = &cluster.Worker{Factory: opts.CampaignFactory(), Cache: cache, Slots: *slots, Log: log}
		joiner = &cluster.Joiner{Worker: worker, Coordinator: coordURL, ID: self, Addr: self, Log: log}
		cfg.Role = "worker"
		cfg.Ready = func() (bool, map[string]any) {
			j := worker.Joined()
			return j, map[string]any{"joined": j, "coordinator": coordURL}
		}
	}

	s, err := server.New(cfg)
	if err != nil {
		fatal("startup failed", "err", err)
	}
	if un := s.Unfinished(); len(un) > 0 {
		log.Info("resuming unfinished jobs", "count", len(un), "data", *data, "jobs", un)
	}
	s.Start()

	handler := s.Handler()
	switch {
	case coord != nil:
		coord.RegisterMetrics(s.Registry())
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.Handle("/v1/cluster/", coord.Handler())
		handler = mux
		log.Info("coordinator mode", "lease_ttl", *leaseTTL, "range_size", *rangeSize)
	case worker != nil:
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.Handle("/v1/cluster/", worker.Handler())
		handler = mux
		log.Info("worker mode", "coordinator", joiner.Coordinator, "advertise", joiner.Addr, "slots", *slots)
	}

	if *debugAddr != "" {
		// The pprof handlers registered by the blank import live on
		// http.DefaultServeMux; serve that mux on a separate, typically
		// loopback-only, address so profiling never rides the public API.
		go func() {
			log.Info("pprof listening", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Error("pprof server failed", "err", err)
			}
		}()
	}

	hs := &http.Server{Addr: *addr, Handler: handler}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	log.Info("serving", "addr", *addr, "data", *data, "runners", *jobs)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if joiner != nil {
		go joiner.Run(ctx)
	}
	select {
	case err := <-errCh:
		log.Error("http server failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop()
	log.Info("signal received; draining (in-flight campaigns journal and resume on next start)")

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		log.Warn("http shutdown", "err", err)
	}
	if err := s.Drain(shutdownCtx); err != nil {
		log.Warn("drain", "err", err)
	}
	if un := s.Unfinished(); len(un) > 0 {
		log.Info("jobs unfinished; restart fhserved to resume", "count", len(un), "data", *data, "jobs", un)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "fhserved:", err)
		os.Exit(1)
	}
}

// baseURL normalizes "host:port" or a full URL into a dialable base.
func baseURL(addr string) string {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimRight(addr, "/")
}

// selfURL derives a worker's advertised URL from its listen address:
// wildcard hosts become localhost (single-machine default; use
// -advertise for anything a remote coordinator must dial).
func selfURL(addr string) string {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return baseURL(addr)
	}
	switch host {
	case "", "::", "0.0.0.0":
		host = "localhost"
	}
	return "http://" + net.JoinHostPort(host, port)
}
