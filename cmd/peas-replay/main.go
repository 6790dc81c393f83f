// Command peas-replay inspects a JSONL event trace written by
// peas-sim -trace: it prints a summary, the working-population timeline,
// and optionally the death record.
//
//	peas-sim -n 480 -trace trace.jsonl
//	peas-replay -in trace.jsonl -deaths
package main

import (
	"flag"
	"fmt"
	"os"

	"peas/internal/buildinfo"
	"peas/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "peas-replay:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		in     = flag.String("in", "trace.jsonl", "trace file to read")
		deaths = flag.Bool("deaths", false, "list every death event")
		width  = flag.Int("width", 60, "timeline chart width")
	)
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("peas-replay"))
		return nil
	}

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := trace.ReadJSONL(f)
	if err != nil {
		return err
	}

	sum := trace.Summarize(events)
	fmt.Printf("%d events spanning %.1f s - %.1f s\n", sum.Total, sum.FirstT, sum.LastT)
	for _, kind := range []trace.Kind{trace.KindState, trace.KindPacket, trace.KindDeath} {
		if n := sum.ByKind[kind]; n > 0 {
			fmt.Printf("  %-8s %d\n", kind, n)
		}
	}
	fmt.Println()

	tl := trace.Timeline(events)
	fmt.Print(trace.FormatTimeline(tl, *width))

	if *deaths {
		fmt.Println("\ndeaths:")
		for _, ev := range trace.DeathTimes(events) {
			fmt.Printf("  %9.1fs node %d (%s)\n", ev.T, ev.Node, ev.Detail)
		}
	}
	return nil
}
