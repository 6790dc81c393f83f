// Command peas-live runs a live PEAS network in one process: every node
// runs the same protocol state machine as the simulator over an in-memory
// or UDP transport, serialized by its own lock while its timers and frames
// arrive on timer and transport goroutines, with time compressed by the
// -scale factor. It prints working-set changes as they happen; -kill stops
// every working node, which then counts as dead.
//
// Usage:
//
//	peas-live -n 40 -field 20 -scale 100 -duration 15s
//	peas-live -transport udp -n 20
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"peas"
	"peas/internal/buildinfo"
	"peas/internal/chaos"
	"peas/peasnet"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "peas-live:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		n         = flag.Int("n", 40, "number of live nodes")
		fieldSize = flag.Float64("field", 20, "square field edge in meters")
		scale     = flag.Float64("scale", 100, "protocol seconds per real second")
		duration  = flag.Duration("duration", 15*time.Second, "how long to run (real time)")
		transport = flag.String("transport", "mem", "transport: mem or udp")
		kill      = flag.Duration("kill", 0, "after this real duration, kill all working nodes to exercise replacement (0 = never)")
		status    = flag.String("status", "", "serve cluster status JSON on this address (e.g. :8080)")
		chaosOn   = flag.Bool("chaos", false, "inject channel impairments (5% loss, 5% duplication, 20% delayed frames) and report fault counters at exit")
	)
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("peas-live"))
		return nil
	}

	var tr peasnet.Transport
	switch *transport {
	case "mem":
		tr = peasnet.NewInMemory()
	case "udp":
		u, err := peasnet.NewUDP(nil)
		if err != nil {
			return err
		}
		tr = u
	default:
		return fmt.Errorf("unknown transport %q", *transport)
	}
	defer func() { _ = tr.Close() }()

	if *chaosOn {
		channel := chaos.NewChannel(time.Now().UnixNano(), nil)
		channel.SetLoss(0.05)
		channel.SetDuplication(0.05)
		channel.SetDelay(0.2, 0.05)
		inj := peasnet.NewChaosInjector(channel, *scale)
		tr.SetFaultInjector(inj)
		defer func() {
			fmt.Println("chaos activity:")
			inj.With(func(c *chaos.Channel) {
				for _, name := range c.Counters().Names() {
					fmt.Printf("  %-14s %8d\n", name, c.Counters().Get(name))
				}
				dropped := c.Counters().Get(chaos.CtrDropLoss) + c.Counters().Get(chaos.CtrDropBurst) +
					c.Counters().Get(chaos.CtrDropPartition)
				fmt.Printf("  %-14s %8d\n", "frames dropped", dropped)
			})
		}()
	}

	cluster, err := peasnet.NewCluster(peasnet.ClusterConfig{
		Field:     peas.Field{Width: *fieldSize, Height: *fieldSize},
		N:         *n,
		Protocol:  peas.DefaultProtocolConfig(),
		TimeScale: *scale,
		Seed:      time.Now().UnixNano(),
		OnState: func(id int, s peas.State) {
			if s == peas.Working {
				fmt.Printf("%8s  node %3d -> working\n", time.Now().Format("15:04:05"), id)
			}
		},
	}, tr)
	if err != nil {
		return err
	}
	defer cluster.Stop()

	if *status != "" {
		srv := &http.Server{Addr: *status, Handler: cluster.StatusHandler()}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "status server:", err)
			}
		}()
		defer func() { _ = srv.Close() }()
		fmt.Printf("status JSON on http://%s/\n", *status)
	}

	fmt.Printf("started %d nodes over %s transport (x%.0f time)\n", *n, *transport, *scale)
	cluster.Start()

	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
	deadline := time.After(*duration)
	var killTimer <-chan time.Time
	if *kill > 0 {
		killTimer = time.After(*kill)
	}
	for {
		select {
		case <-ticker.C:
			fmt.Printf("working: %d / %d\n", cluster.WorkingCount(), *n)
		case <-killTimer:
			killed := 0
			for _, nd := range cluster.Nodes {
				if nd.State() == peas.Working {
					nd.Stop()
					killed++
				}
			}
			fmt.Printf("killed %d working nodes; watching replacement...\n", killed)
			killTimer = nil
		case <-deadline:
			fmt.Printf("final working set: %d / %d\n", cluster.WorkingCount(), *n)
			return nil
		}
	}
}
