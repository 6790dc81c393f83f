package peasnet

import (
	"fmt"
	"net"
	"path/filepath"
	"testing"
	"time"

	"peas/internal/core"
	"peas/internal/geom"
)

// freePorts reserves n distinct loopback UDP ports.
func freePorts(t *testing.T, n int) []int {
	t.Helper()
	ports := make([]int, 0, n)
	conns := make([]*net.UDPConn, 0, n)
	for i := 0; i < n; i++ {
		c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
		addr, ok := c.LocalAddr().(*net.UDPAddr)
		if !ok {
			t.Fatal("unexpected addr type")
		}
		ports = append(ports, addr.Port)
	}
	for _, c := range conns {
		_ = c.Close()
	}
	return ports
}

func peerTable(t *testing.T, n int, field float64) []PeerInfo {
	t.Helper()
	ports := freePorts(t, n)
	peers := make([]PeerInfo, 0, n)
	for i := 0; i < n; i++ {
		peers = append(peers, PeerInfo{
			ID:   i,
			Addr: fmt.Sprintf("127.0.0.1:%d", ports[i]),
			X:    field * float64(i%3) / 3,
			Y:    field * float64(i/3) / 3,
		})
	}
	return peers
}

func TestPeersFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "peers.json")
	peers := []PeerInfo{
		{ID: 0, Addr: "127.0.0.1:42000", X: 1.5, Y: 2.5},
		{ID: 1, Addr: "127.0.0.1:42001", X: 3, Y: 4},
	}
	if err := WritePeersFile(path, peers); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPeersFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0] != peers[0] || back[1] != peers[1] {
		t.Errorf("round trip: %+v", back)
	}
	if _, err := ReadPeersFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file should fail")
	}
}

// TestUDPTableValidation: a malformed table is refused, and a table
// transport hosts only listed, not-yet-hosted ids and transmits only for
// the ids it hosts.
func TestUDPTableValidation(t *testing.T) {
	if _, err := NewUDP([]PeerInfo{{ID: 0, Addr: "no-port"}}); err == nil {
		t.Error("unresolvable address should fail")
	}
	peers := peerTable(t, 2, 9)
	if _, err := NewUDP(append(peers, peers[0])); err == nil {
		t.Error("duplicate id should fail")
	}
	tr, err := NewUDP(peers)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	listening := func() bool { return true }
	recv := func([]byte, float64) {}
	if err := tr.Register(99, geom.Point{}, listening, recv); err == nil {
		t.Error("registering an id outside the table should fail")
	}
	if err := tr.Broadcast(1, geom.Point{}, 3, nil); err == nil {
		t.Error("transmitting for a node not hosted here should fail")
	}
	if err := tr.Register(0, geom.Point{}, listening, recv); err != nil {
		t.Fatal(err)
	}
	if err := tr.Register(0, geom.Point{}, listening, recv); err == nil {
		t.Error("registering a hosted id twice should fail")
	}
}

// TestMultiTransportNetwork runs one node per table-driven UDP transport —
// each with its own socket, exactly as separate processes would — and
// checks the network stabilizes into a plausible working set.
func TestMultiTransportNetwork(t *testing.T) {
	const n = 9
	peers := peerTable(t, n, 9) // 9x9 m: several Rp=3 m regions
	nodes := make([]*Node, 0, n)
	transports := make([]*UDP, 0, n)
	defer func() {
		for _, nd := range nodes {
			nd.Stop()
		}
		for _, tr := range transports {
			_ = tr.Close()
		}
	}()
	for i := 0; i < n; i++ {
		tr, err := NewUDP(peers)
		if err != nil {
			t.Fatal(err)
		}
		transports = append(transports, tr)
		nd, err := NewNode(Config{
			ID:        i,
			Pos:       geom.Point{X: peers[i].X, Y: peers[i].Y},
			Protocol:  core.DefaultConfig(),
			TimeScale: 100,
			Seed:      int64(i + 1),
		}, tr)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
	}
	for _, nd := range nodes {
		nd.Start()
	}

	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		working := 0
		for _, nd := range nodes {
			if nd.State() == core.Working {
				working++
			}
		}
		if working >= 2 && working < n {
			t.Logf("multi-transport working set: %d of %d", working, n)
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	states := make([]core.State, n)
	for i, nd := range nodes {
		states[i] = nd.State()
	}
	t.Fatalf("no plausible working set emerged: %v", states)
}
