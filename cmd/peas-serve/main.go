// Command peas-serve runs the simulation service: a long-lived HTTP
// control plane that accepts simulation and chaos-campaign jobs,
// executes them on a bounded worker pool, and serves results from a
// content-addressed cache keyed by the canonical encoding of the job
// configuration. Identical submissions coalesce onto one run; repeats
// are answered instantly with the recorded StateHash.
//
// Usage:
//
//	peas-serve -addr :8080 -workers 4 -queue 64
//	peas-serve -state-dir /var/lib/peas -drain 30s
//
// Endpoints:
//
//	POST /api/v1/jobs             submit a job (429 + Retry-After when full)
//	GET  /api/v1/jobs             list jobs
//	GET  /api/v1/jobs/{id}        job status + result
//	DELETE /api/v1/jobs/{id}      request cancellation (idempotent; parks a resumable checkpoint)
//	GET  /api/v1/jobs/{id}/events SSE lifecycle/progress stream
//	GET  /api/v1/results/{key}    cached result by content key
//	GET  /healthz                 liveness + build identity
//	GET  /metrics                 Prometheus text metrics
//
// On SIGINT/SIGTERM the server stops accepting work (503 + Retry-After)
// and drains: running jobs get -drain to finish; past the deadline they
// are checkpointed into -state-dir (when set) and resume bit-exactly on
// the next boot.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"peas/internal/buildinfo"
	"peas/internal/durable"
	"peas/internal/jobqueue"
	"peas/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "peas-serve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 64, "queued-job capacity before submissions get 429")
		cacheCap  = flag.Int("cache", 1024, "capacity of the result cache, of the parked checkpoints and of the finished jobs kept readable by ID (a finished job with its cached result holds about 1.1 KB, a park about 1.6 KB; its checkpoint stays on disk)")
		stateDir  = flag.String("state-dir", "", "persist specs and drain checkpoints here (enables resume across restarts)")
		ckptEvery = flag.Float64("checkpoint-every", 250, "spacing, in simulated seconds, of the boundaries at which a drain past its budget may checkpoint a running job (with -state-dir)")
		drain     = flag.Duration("drain", 30*time.Second, "graceful-shutdown budget for running jobs")
		watchdog  = flag.Duration("watchdog", 0, "stall window: preempt a running job whose engine makes no event progress for this long (0 = stall detection off; deadlines are always enforced)")
		durDelay  = flag.Duration("durable-delay", 0, "slow every state-store disk operation by this much (crash-soak test hook: widens the window a SIGKILL can land in)")
		version   = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("peas-serve"))
		return nil
	}

	nWorkers := *workers
	if nWorkers <= 0 {
		nWorkers = runtime.GOMAXPROCS(0)
	}
	var fsys durable.FS
	if *durDelay > 0 {
		fsys = durable.Slow(nil, *durDelay)
	}
	pool := jobqueue.New(jobqueue.Config{
		Workers:         nWorkers,
		QueueDepth:      *queue,
		CacheCap:        *cacheCap,
		StateDir:        *stateDir,
		CheckpointEvery: *ckptEvery,
		StallWindow:     *watchdog,
		FS:              fsys,
	})
	if *stateDir != "" {
		n, err := pool.Recover()
		if err != nil {
			return fmt.Errorf("recovering persisted jobs: %w", err)
		}
		if n > 0 {
			log.Printf("recovered %d persisted job(s) from %s", n, *stateDir)
		}
		counters := pool.Stats().Counters
		if q := counters["jobs_quarantined"] + counters["checkpoints_quarantined"]; q > 0 {
			log.Printf("quarantined %d damaged state file group(s) into %s — inspect and remove manually",
				q, filepath.Join(*stateDir, jobqueue.QuarantineDir))
		}
	}
	pool.Start()

	// No global WriteTimeout: it would sever SSE streams mid-job. The
	// handler applies per-request write deadlines instead (rolling for
	// streams), so slow-client protection survives without breaking the
	// event feed.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           server.New(pool, nWorkers),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}

	errCh := make(chan error, 1)
	go func() {
		log.Printf("%s listening on %s (%d workers, queue %d)",
			buildinfo.String("peas-serve"), *addr, nWorkers, *queue)
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		log.Printf("received %s, draining (budget %s)", s, *drain)
	}

	// Drain the pool first, with HTTP still up: submissions get a
	// retryable 503 at once, event streams carry their jobs to a terminal
	// event, and jobs that outlive the budget are checkpointed (with
	// -state-dir) to resume on the next boot. Closing HTTP before the
	// drain would wait on every open event stream instead.
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drain)
	defer cancelDrain()
	drainErr := pool.Shutdown(drainCtx)
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelHTTP()
	if err := srv.Shutdown(httpCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if drainErr != nil {
		if errors.Is(drainErr, context.DeadlineExceeded) {
			log.Printf("drain deadline passed; long-running jobs suspended")
			return nil
		}
		return drainErr
	}
	log.Printf("drained cleanly")
	return nil
}
