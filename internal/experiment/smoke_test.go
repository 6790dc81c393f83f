package experiment

import (
	"encoding/json"
	"strings"
	"testing"

	"peas/internal/node"
)

// TestSmokeRun exercises a short full-stack run and sanity-checks the
// working-set behaviour PEAS must exhibit.
func TestSmokeRun(t *testing.T) {
	cfg := RunConfig{
		Network:          node.DefaultConfig(160, 42),
		FailuresPer5000s: BaseFailuresPer5000,
		Horizon:          1200,
		Forwarding:       true,
	}
	rs, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("meanWorking=%.1f wakeups=%d overhead=%.3f%% totalE=%.1fJ protoE=%.2fJ",
		rs.MeanWorking, rs.Wakeups, 100*rs.OverheadRatio, rs.TotalEnergy, rs.ProtocolEnergy)
	t.Logf("initialCoverage=%v pkts sent=%d delivered=%d collided=%d",
		rs.InitialCoverage, rs.PacketsSent, rs.PacketsDelivered, rs.PacketsCollided)
	t.Logf("reports gen=%d del=%d rebuilds=%d flips=%d", rs.ReportsGenerated, rs.ReportsDelivered,
		rs.RouteRebuilds, rs.WorkingTransitions)

	if rs.MeanWorking < 20 || rs.MeanWorking > 160 {
		t.Errorf("mean working count %.1f outside plausible range", rs.MeanWorking)
	}
	if rs.InitialCoverage[0] < 0.95 {
		t.Errorf("1-coverage after boot = %.3f, want >= 0.95", rs.InitialCoverage[0])
	}
	if rs.ReportsGenerated == 0 || rs.ReportsDelivered == 0 {
		t.Errorf("forwarding inactive: gen=%d del=%d", rs.ReportsGenerated, rs.ReportsDelivered)
	}
	// Some reports follow a working-set flip and search for a route, the
	// rest reuse the previous one; every flip the coverage engine saw, the
	// harness saw too.
	if rs.RouteRebuilds == 0 || rs.RouteRebuilds >= rs.ReportsGenerated {
		t.Errorf("%d route rebuilds for %d reports, want some but not all", rs.RouteRebuilds, rs.ReportsGenerated)
	}
	if rs.WorkingTransitions < int(rs.MeanWorking) {
		t.Errorf("%d working-set flips with %.0f nodes working on average", rs.WorkingTransitions, rs.MeanWorking)
	}
	if rs.Wakeups == 0 {
		t.Error("no wakeups recorded")
	}

	// A run without forwarding leaves the two counters zero, and zero
	// stays off the wire.
	wire, err := json.Marshal(&RunStats{})
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"WorkingTransitions", "RouteRebuilds"} {
		if strings.Contains(string(wire), field) {
			t.Errorf("zero RunStats carries %s on the wire: %s", field, wire)
		}
	}
}
