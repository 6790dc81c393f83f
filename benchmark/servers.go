package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"peas/internal/client"
	"peas/internal/jobqueue"
	"peas/internal/server"
)

// The pool configuration every service pass uses, real binary or
// in-process: the 2-core sandbox gets 2 workers; the cache (1024) is
// smaller than service_cold_small's job count, so FIFO eviction runs, and
// larger than service_cached's 256 specs, so nothing there is evicted.
const (
	poolWorkers         = 2
	poolQueue           = 64
	poolCache           = 1024
	poolCheckpointEvery = 250.0
	serviceClients      = 2
)

// buildServer compiles cmd/peas-serve into binDir and returns the binary's
// path and how long the build took (seconds of `go build`, mostly the Go
// build cache's business, which is why it is not part of setup_s).
func buildServer(ctx context.Context, root, binDir string) (string, float64, error) {
	bin, err := filepath.Abs(filepath.Join(binDir, "peas-serve"))
	if err != nil {
		return "", 0, err
	}
	t0 := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/peas-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("building peas-serve: %v\n%s", err, out)
	}
	return bin, time.Since(t0).Seconds(), nil
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// newStateDir creates a fresh state directory under the checkout's build
// area (never /tmp: the benchmark writes only inside its checkout).
func newStateDir(root string) (string, error) {
	parent := filepath.Join(root, ".bench_build", "state")
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(parent, "run-")
}

// childServer is one real peas-serve process.
type childServer struct {
	cmd      *exec.Cmd
	base     string
	stateDir string
	log      bytes.Buffer
}

// startChild launches peas-serve on a free port with a fresh state dir and
// returns once /healthz answers. loadgen.ServerProc is not used: it
// defaults to the soak's 50 s checkpoint cadence and 150 ms drain, has no
// -cache flag, and polls health every 100 ms, which would quantise
// setup_s.
func startChild(ctx context.Context, bin, root string) (*childServer, error) {
	stateDir, err := newStateDir(root)
	if err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	s := &childServer{base: "http://" + addr, stateDir: stateDir}
	s.cmd = exec.Command(bin,
		"-addr", addr,
		"-workers", strconv.Itoa(poolWorkers),
		"-queue", strconv.Itoa(poolQueue),
		"-cache", strconv.Itoa(poolCache),
		"-checkpoint-every", strconv.FormatFloat(poolCheckpointEvery, 'g', -1, 64),
		"-drain", "30s",
		"-state-dir", stateDir)
	s.cmd.Stdout, s.cmd.Stderr = &s.log, &s.log
	if err := s.cmd.Start(); err != nil {
		os.RemoveAll(stateDir)
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	c := client.New(s.base)
	deadline := time.Now().Add(15 * time.Second)
	for {
		hctx, cancel := context.WithTimeout(ctx, time.Second)
		_, err := c.Health(hctx)
		cancel()
		if err == nil {
			return s, nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			s.kill()
			return nil, fmt.Errorf("peas-serve at %s not healthy in time: %v\n%s", addr, err, s.log.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (s *childServer) pid() int { return s.cmd.Process.Pid }

func (s *childServer) kill() {
	_ = s.cmd.Process.Kill()
	_ = s.cmd.Wait()
	os.RemoveAll(s.stateDir)
}

// stop SIGTERMs the server, waits for its drain to finish and removes the
// state dir. The process has always ended when stop returns.
func (s *childServer) stop() error {
	defer os.RemoveAll(s.stateDir)
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		_ = s.cmd.Wait()
		return fmt.Errorf("SIGTERM peas-serve: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("peas-serve exited after SIGTERM: %v\n%s", err, s.log.String())
		}
		return nil
	case <-time.After(40 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
		return errors.New("peas-serve did not drain within 40s; killed")
	}
}

// localServer is the same pool configuration served in this process on a
// loopback listener, so the traced pass can inject its wrappers through
// seams that already exist (jobqueue.Config.FS and .Run, the http.Handler).
type localServer struct {
	pool     *jobqueue.Pool
	srv      *http.Server
	served   chan error
	base     string
	stateDir string
}

// startLocal serves a fresh pool; tr may be nil for the plain (spans off)
// pass.
func startLocal(root string, tr *tracer) (*localServer, error) {
	stateDir, err := newStateDir(root)
	if err != nil {
		return nil, err
	}
	cfg := jobqueue.Config{
		Workers:         poolWorkers,
		QueueDepth:      poolQueue,
		CacheCap:        poolCache,
		StateDir:        stateDir,
		CheckpointEvery: poolCheckpointEvery,
	}
	if tr != nil {
		cfg.FS = &tracedFS{t: tr}
		cfg.Run = tr.run
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(stateDir)
		return nil, err
	}
	pool := jobqueue.New(cfg)
	pool.Start()
	var h http.Handler = server.New(pool, poolWorkers)
	if tr != nil {
		h = tr.handler(h)
	}
	s := &localServer{
		pool:     pool,
		srv:      &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		served:   make(chan error, 1),
		base:     "http://" + ln.Addr().String(),
		stateDir: stateDir,
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the listener and the pool down and waits for both.
func (s *localServer) stop() error {
	defer os.RemoveAll(s.stateDir)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, s.pool.Shutdown(ctx))
}

// scrape fetches /metrics and returns the plain (unlabelled) series by
// name, e.g. "peas_cache_hits".
func scrape(ctx context.Context, c *client.Client) (map[string]float64, error) {
	text, err := c.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}
