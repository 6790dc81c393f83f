package peasnet

import (
	"fmt"
	"slices"
	"sync"

	"peas/internal/geom"
)

// Receiver is the callback a node registers to receive frames. dist is
// the distance to the transmitter in meters.
type Receiver func(frame []byte, dist float64)

// Transport is the broadcast medium abstraction of the live runtime.
// Implementations must deliver asynchronously: Broadcast must not block
// on slow receivers, or node event loops could deadlock on each other.
type Transport interface {
	// Register attaches a receiver for node id at position pos. The
	// listening callback reports whether the node's radio is currently
	// on; transports must not deliver to non-listening nodes.
	Register(id int, pos geom.Point, listening func() bool, recv Receiver) error
	// Unregister tears node id's endpoint down, freeing the id for a
	// later Register — the crash half of a crash-restart. Unknown ids
	// are ignored.
	Unregister(id int)
	// Broadcast delivers frame to every listening registered node
	// within radius of pos, except the sender.
	Broadcast(from int, pos geom.Point, radius float64, frame []byte) error
	// SetFaultInjector installs (or, with nil, removes) the fault hook
	// judging each (frame, receiver) delivery. It may be changed while
	// the network runs.
	SetFaultInjector(f FaultInjector)
	// Close releases transport resources and stops deliveries.
	Close() error
}

type memberEntry struct {
	pos       geom.Point
	listening func() bool
	recv      Receiver
}

// InMemory is a Transport delivering frames between goroutine nodes in
// one process. Every delivery is a callback of the transport's clock, so
// Broadcast never blocks the caller's event loop.
type InMemory struct {
	mu         sync.Mutex
	members    map[int]*memberEntry
	closed     bool
	faults     FaultInjector
	clk        clock
	delivering sync.WaitGroup
}

var _ Transport = (*InMemory)(nil)

// NewInMemory returns a running in-memory transport. Close it to stop
// deliveries.
func NewInMemory() *InMemory {
	return &InMemory{members: make(map[int]*memberEntry), clk: wall}
}

// SetFaultInjector implements Transport.
func (t *InMemory) SetFaultInjector(f FaultInjector) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.faults = f
}

// Register implements Transport.
func (t *InMemory) Register(id int, pos geom.Point, listening func() bool, recv Receiver) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return fmt.Errorf("peasnet: transport closed")
	}
	if _, ok := t.members[id]; ok {
		return fmt.Errorf("peasnet: node %d already registered", id)
	}
	t.members[id] = &memberEntry{pos: pos, listening: listening, recv: recv}
	return nil
}

// Broadcast implements Transport: each in-range listening receiver, in
// ascending id, is judged by the fault step, and every copy it lets
// through is delivered by a clock callback.
func (t *InMemory) Broadcast(from int, pos geom.Point, radius float64, frame []byte) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return fmt.Errorf("peasnet: transport closed")
	}
	cp := append([]byte(nil), frame...)
	type target struct {
		id   int
		recv Receiver
		dist float64
	}
	targets := make([]target, 0, 8)
	for id, m := range t.members {
		if d := pos.Dist(m.pos); id != from && d <= radius && m.listening() {
			targets = append(targets, target{id, m.recv, d})
		}
	}
	slices.SortFunc(targets, func(a, b target) int { return a.id - b.id })
	faults := t.faults
	t.mu.Unlock()

	for _, tg := range targets {
		copies, delay := judge(faults, from, tg.id)
		for range copies {
			t.clk.AfterFunc(delay, func() { t.deliver(tg.recv, cp, tg.dist) })
		}
	}
	return nil
}

// deliver hands frame to recv unless the transport has closed; Close
// waits for deliveries already under way.
func (t *InMemory) deliver(recv Receiver, frame []byte, dist float64) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.delivering.Add(1)
	t.mu.Unlock()
	defer t.delivering.Done()
	recv(frame, dist)
}

// Unregister implements Transport.
func (t *InMemory) Unregister(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.members, id)
}

// Close implements Transport.
func (t *InMemory) Close() error {
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
	t.delivering.Wait()
	return nil
}
