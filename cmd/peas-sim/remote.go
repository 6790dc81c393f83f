package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"peas/internal/client"
	"peas/internal/jobqueue"
)

// runRemote submits the configured simulation to a peas-serve instance
// instead of running it in-process, follows the job's SSE progress
// stream, and prints the same metric summary the local path does plus
// the service-side identity: the content key, the cache outcome, and
// the recorded StateHash. Because the engine is bit-exact, a cache hit
// is indistinguishable from a fresh run — the hash proves it.
func runRemote(url string, spec *jobqueue.Spec) error {
	c := client.New(url)
	// Interrupts cancel the context mid-follow; the deferred hook below
	// then tells the server to stop the job instead of abandoning it to
	// burn a worker until its horizon.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Bounded retries absorb transient saturation: each 429 is retried
	// with the server's Retry-After hint under capped exponential
	// backoff before giving up.
	resp, err := c.SubmitWithRetry(ctx, spec, client.RetryPolicy{
		OnRetry: func(attempt int, wait time.Duration) {
			fmt.Printf("service busy (attempt %d); retrying in %s\n", attempt, wait)
		},
	})
	if err != nil {
		var retryable *client.RetryableError
		if errors.As(err, &retryable) {
			return fmt.Errorf("service at capacity; retry in %s", retryable.RetryAfter)
		}
		return err
	}
	fmt.Printf("remote:                %s\n", url)
	fmt.Printf("job:                   %s (%s)\n", resp.Job.ID, resp.Outcome)
	fmt.Printf("content key:           %s\n", resp.Job.Key)

	// Best-effort cancellation on interrupt: the signal context is dead,
	// so the DELETE gets its own short budget. The server parks a
	// checkpoint, so re-running the same spec later resumes bit-exactly.
	defer func() {
		if ctx.Err() == nil || resp.Outcome == jobqueue.OutcomeCached {
			return
		}
		cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if cr, cerr := c.Cancel(cctx, resp.Job.ID); cerr == nil && cr.Requested {
			fmt.Fprintf(os.Stderr, "interrupted: requested cancellation of job %s\n", resp.Job.ID)
		}
	}()

	if resp.Outcome != jobqueue.OutcomeCached {
		// Follow progress at ~decile granularity until the job ends.
		lastDecile := -1
		err = c.Events(ctx, resp.Job.ID, func(ev jobqueue.Event) bool {
			if ev.Type == jobqueue.EventProgress && ev.Horizon > 0 {
				if d := int(ev.Fraction * 10); d > lastDecile {
					lastDecile = d
					fmt.Printf("progress:              t=%.0f s of %.0f s (%d%%), %d working\n",
						ev.SimT, ev.Horizon, int(ev.Fraction*100), ev.Working)
				}
			}
			return true
		})
		if err != nil {
			return fmt.Errorf("event stream: %w", err)
		}
	}

	info, err := c.Wait(ctx, resp.Job.ID)
	if err != nil {
		return err
	}
	res := info.Result
	if res == nil || res.Stats == nil {
		return fmt.Errorf("job %s finished without run stats", info.ID)
	}
	fmt.Printf("state hash:            %s\n", res.StateHash)
	fmt.Printf("server wall time:      %.3f s", res.WallSeconds)
	if res.Events > 0 {
		fmt.Printf(" (%d events)", res.Events)
	}
	fmt.Println()
	printStats(spec.Network.N, spec.Network.Seed, spec.Forwarding, res.Stats)
	return nil
}
