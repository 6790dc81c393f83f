// Livenet: run PEAS outside the simulator. Every node runs the real
// protocol state machine over an in-memory broadcast transport with time
// compressed 100x; a node is serialized by its lock, and its timers and
// frames arrive on timer and transport goroutines. The example boots a
// network, watches the working set stabilize, kills the working nodes
// (a killed node counts as dead), and shows sleepers waking up to replace
// them — the paper's core robustness story, live. It exits non-zero if
// no replacement emerges.
//
//	go run ./examples/livenet
package main

import (
	"fmt"
	"os"
	"time"

	"peas"
	"peas/peasnet"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "livenet:", err)
		os.Exit(1)
	}
}

func run() error {
	cluster, err := peasnet.NewCluster(peasnet.ClusterConfig{
		Field:     peas.Field{Width: 15, Height: 15},
		N:         30,
		Protocol:  peas.DefaultProtocolConfig(),
		TimeScale: 100, // 1 real second = 100 protocol seconds
		Seed:      2024,
	}, nil)
	if err != nil {
		return err
	}
	defer cluster.Stop()

	fmt.Println("booting 30 live nodes on a 15x15 m field (time x100)...")
	cluster.Start()

	if !cluster.AwaitStable(0, 500*time.Millisecond, 15*time.Second) {
		return fmt.Errorf("working set did not stabilize")
	}
	working := cluster.WorkingCount()
	fmt.Printf("stabilized: %d working, %d sleeping\n", working, 30-working)
	for _, n := range cluster.Nodes {
		if n.State() == peas.Working {
			fmt.Printf("  worker %2d at %s\n", n.ID(), n.Pos())
		}
	}

	// Fail every working node at once — the worst case of §5.3.
	killed := 0
	for _, n := range cluster.Nodes {
		if n.State() == peas.Working {
			n.Stop()
			killed++
		}
	}
	fmt.Printf("\nkilled all %d workers; waiting for sleepers to take over...\n", killed)

	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if n := cluster.WorkingCount(); n >= 1 {
			fmt.Printf("recovered: %d replacement worker(s) active\n", n)
			if cluster.AwaitStable(0, 500*time.Millisecond, 15*time.Second) {
				fmt.Printf("re-stabilized at %d workers\n", cluster.WorkingCount())
			}
			return nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("no replacement emerged")
}
