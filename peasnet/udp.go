package peasnet

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"slices"
	"sync"

	"peas/internal/core"
	"peas/internal/geom"
)

// PeerInfo is one row of the static peer table used by multi-process
// deployments (cmd/peas-node): who listens where, and at which field
// position. Real sensor hardware would not need the table — radio
// reachability replaces it — but UDP needs explicit addressing.
type PeerInfo struct {
	ID   int     `json:"id"`
	Addr string  `json:"addr"`
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
}

// WritePeersFile saves a peer table as JSON.
func WritePeersFile(path string, peers []PeerInfo) error {
	data, err := json.MarshalIndent(peers, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal peers: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadPeersFile loads a peer table from JSON.
func ReadPeersFile(path string) ([]PeerInfo, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var peers []PeerInfo
	if err := json.Unmarshal(data, &peers); err != nil {
		return nil, fmt.Errorf("parse peers file %s: %w", path, err)
	}
	return peers, nil
}

// UDP is a Transport over UDP sockets: every node the process hosts (each
// id it Registers) owns one socket, and a broadcast becomes one datagram
// per in-range node of the peer table. Receivers take the sender's
// distance from the table, as a radio would from signal strength.
//
// With a table, a process may host any subset of its ids — cmd/peas-node
// hosts one — and each binds its listed address. Without one, every
// registration binds a fresh loopback port and enters the table itself,
// which runs a whole network in one process. UDP demonstrates the
// protocol over a real network stack; it is not a radio model (no
// collisions or losses beyond the kernel's and the fault injector's).
type UDP struct {
	mu     sync.Mutex
	peers  map[int]*udpPeer
	table  bool // peers came from a table, which Register must not grow
	faults FaultInjector
	closed bool
	wg     sync.WaitGroup
}

type udpPeer struct {
	pos  geom.Point
	addr *net.UDPAddr
	conn *net.UDPConn // non-nil while the node is hosted in this process
}

var _ Transport = (*UDP)(nil)

// NewUDP returns a UDP transport over the given peer table, or over an
// empty, self-filling one when peers is nil.
func NewUDP(peers []PeerInfo) (*UDP, error) {
	t := &UDP{peers: make(map[int]*udpPeer, len(peers)), table: peers != nil}
	for _, p := range peers {
		if _, dup := t.peers[p.ID]; dup {
			return nil, fmt.Errorf("peasnet: node %d listed twice in peer table", p.ID)
		}
		addr, err := net.ResolveUDPAddr("udp4", p.Addr)
		if err != nil {
			return nil, fmt.Errorf("peer %d addr %q: %w", p.ID, p.Addr, err)
		}
		t.peers[p.ID] = &udpPeer{pos: geom.Point{X: p.X, Y: p.Y}, addr: addr}
	}
	return t, nil
}

// Register implements Transport: it binds node id's socket and starts its
// reader. With a table, id must be listed and pos is the table's.
func (t *UDP) Register(id int, pos geom.Point, listening func() bool, recv Receiver) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return fmt.Errorf("peasnet: transport closed")
	}
	p := t.peers[id]
	switch {
	case p != nil && p.conn != nil:
		return fmt.Errorf("peasnet: node %d already registered", id)
	case t.table && p == nil:
		return fmt.Errorf("peasnet: node %d not in peer table", id)
	case p == nil:
		p = &udpPeer{pos: pos, addr: &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}}
	}
	conn, err := net.ListenUDP("udp4", p.addr)
	if err != nil {
		return fmt.Errorf("listen udp for node %d: %w", id, err)
	}
	if !t.table {
		p.addr = conn.LocalAddr().(*net.UDPAddr)
		t.peers[id] = p
	}
	p.conn = conn
	t.wg.Add(1)
	go t.read(conn, p.pos, listening, recv)
	return nil
}

// read pumps datagrams from one hosted socket into its node's receiver
// until the socket closes.
func (t *UDP) read(conn *net.UDPConn, pos geom.Point, listening func() bool, recv Receiver) {
	defer t.wg.Done()
	buf := make([]byte, FrameSize+16)
	for {
		n, _, err := conn.ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		if n < FrameSize || !listening() {
			continue // runt, or radio "off": drop silently
		}
		frame := append([]byte(nil), buf[:FrameSize]...)
		payload, err := Unmarshal(frame)
		if err != nil {
			continue
		}
		t.mu.Lock()
		sender := t.peers[senderOf(payload)]
		t.mu.Unlock()
		if sender != nil {
			recv(frame, pos.Dist(sender.pos))
		}
	}
}

// Broadcast implements Transport: one datagram per in-range peer, in
// ascending id, each through the fault step. from must be hosted in this
// process.
func (t *UDP) Broadcast(from int, pos geom.Point, radius float64, frame []byte) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return fmt.Errorf("peasnet: transport closed")
	}
	sender := t.peers[from]
	if sender == nil || sender.conn == nil {
		t.mu.Unlock()
		return fmt.Errorf("peasnet: node %d is not hosted here", from)
	}
	type target struct {
		id   int
		addr *net.UDPAddr
	}
	targets := make([]target, 0, 8)
	for id, p := range t.peers {
		if id != from && pos.Dist(p.pos) <= radius {
			targets = append(targets, target{id, p.addr})
		}
	}
	slices.SortFunc(targets, func(a, b target) int { return a.id - b.id })
	conn, faults := sender.conn, t.faults
	t.mu.Unlock()

	for _, tg := range targets {
		// Best effort, like a radio: a receiver that went away, or a
		// sender closed before a delayed copy fires, just loses the frame.
		send := func() { _, _ = conn.WriteToUDP(frame, tg.addr) }
		copies, delay := judge(faults, from, tg.id)
		for range copies {
			if delay > 0 {
				wall.AfterFunc(delay, send)
			} else {
				send()
			}
		}
	}
	return nil
}

// SetFaultInjector implements Transport.
func (t *UDP) SetFaultInjector(f FaultInjector) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.faults = f
}

// Unregister implements Transport: it closes node id's socket, which ends
// its reader. A table row stays, so peers keep addressing the node.
func (t *UDP) Unregister(id int) {
	t.mu.Lock()
	p := t.peers[id]
	if p == nil || p.conn == nil {
		t.mu.Unlock()
		return
	}
	conn := p.conn
	p.conn = nil
	if !t.table {
		delete(t.peers, id)
	}
	t.mu.Unlock()
	_ = conn.Close()
}

// Close shuts every hosted socket and waits for the readers to exit.
func (t *UDP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	for _, p := range t.peers {
		if p.conn != nil {
			_ = p.conn.Close()
		}
	}
	t.mu.Unlock()
	t.wg.Wait()
	return nil
}

// senderOf extracts the sender id from a decoded payload.
func senderOf(payload any) int {
	switch msg := payload.(type) {
	case core.Probe:
		return int(msg.From)
	case core.Reply:
		return int(msg.From)
	default:
		return -1
	}
}
