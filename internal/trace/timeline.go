package trace

import (
	"fmt"
	"sort"
	"strings"
)

// TimelinePoint is the number of nodes in each mode at one instant.
type TimelinePoint struct {
	T        float64
	Working  int
	Sleeping int
	Probing  int
	Dead     int
}

// Timeline reconstructs the per-mode population over time from a trace's
// state and death events. Events must be time-ordered, as recorded.
func Timeline(events []Event) []TimelinePoint {
	// Track every node's last known mode.
	mode := map[int]string{}
	var out []TimelinePoint
	var p TimelinePoint // the running per-mode counts
	for _, ev := range events {
		m := ev.Detail
		switch ev.Kind {
		case KindState:
		case KindDeath:
			m = "dead"
		default:
			continue
		}
		if c := p.counter(mode[ev.Node]); c != nil {
			*c--
		}
		if c := p.counter(m); c != nil {
			*c++
		}
		mode[ev.Node] = m
		p.T = ev.T
		out = append(out, p)
	}
	return out
}

// counter returns the count of mode m, or nil for a mode (or a node not
// seen yet) that no count covers.
func (p *TimelinePoint) counter(m string) *int {
	switch m {
	case "working":
		return &p.Working
	case "sleeping":
		return &p.Sleeping
	case "probing":
		return &p.Probing
	case "dead":
		return &p.Dead
	}
	return nil
}

// Downsample keeps at most n points of a timeline, evenly spaced,
// always retaining the first and last.
func Downsample(tl []TimelinePoint, n int) []TimelinePoint {
	if n <= 0 || len(tl) <= n {
		return tl
	}
	out := make([]TimelinePoint, 0, n)
	step := float64(len(tl)-1) / float64(n-1)
	for i := 0; i < n; i++ {
		out = append(out, tl[int(float64(i)*step)])
	}
	return out
}

// FormatTimeline renders a timeline as a fixed-width text chart of the
// working population, for terminal inspection of traces.
func FormatTimeline(tl []TimelinePoint, width int) string {
	if len(tl) == 0 {
		return "(empty timeline)\n"
	}
	if width <= 0 {
		width = 60
	}
	maxWorking := 0
	for _, p := range tl {
		if p.Working > maxWorking {
			maxWorking = p.Working
		}
	}
	if maxWorking == 0 {
		maxWorking = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "working nodes over time (max %d)\n", maxWorking)
	pts := Downsample(tl, 20)
	for _, p := range pts {
		bar := int(float64(p.Working) / float64(maxWorking) * float64(width))
		fmt.Fprintf(&b, "%9.1fs |%-*s| W=%-4d S=%-4d dead=%d\n",
			p.T, width, strings.Repeat("#", bar), p.Working, p.Sleeping, p.Dead)
	}
	return b.String()
}

// DeathTimes extracts (time, node) pairs of all deaths, sorted by time.
func DeathTimes(events []Event) []Event {
	var out []Event
	for _, ev := range events {
		if ev.Kind == KindDeath {
			out = append(out, ev)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}
