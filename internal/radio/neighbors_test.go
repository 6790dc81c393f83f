package radio

import (
	"math"
	"testing"

	"peas/internal/geom"
	"peas/internal/sim"
	"peas/internal/stats"
)

// Broadcast walks the sender's row of a neighbour table where it used to
// sweep the spatial index. These tests hold the two to the same outcome:
// one seeded storm of broadcasts is played on a medium that uses its
// tables and on one whose table slots are taken, so that every sweep falls
// back to idx.Within2, and everything observable must agree — each
// delivery's time, receiver and distance (to the bit), every node's tx and
// rx ledger, and the medium's counters.

// heard is one delivery as the protocol layer saw it.
type heard struct {
	at   sim.Time
	to   NodeID
	from NodeID
	dist uint64 // math.Float64bits
}

// stormNode is a receiver that logs into the storm's shared record. It is
// attached listening; the storm powers it down and up through the medium.
type stormNode struct {
	id    NodeID
	storm *storm
}

func (n *stormNode) Listening() bool { return true }
func (n *stormNode) Deliver(pkt Packet, dist float64) {
	n.storm.log = append(n.storm.log, heard{n.storm.engine.Now(), n.id, pkt.From, math.Float64bits(dist)})
}

// storm is one medium under the script, doubling as its energy sink: an rx
// charge to every fifth node powers down the node after it, which the same
// sweep has usually not reached yet — a battery dying mid-sweep.
type storm struct {
	engine *sim.Engine
	medium *Medium
	nodes  []*stormNode
	tx, rx []float64
	log    []heard
}

func (s *storm) SpendTx(id NodeID, secs float64) { s.tx[id] += secs }
func (s *storm) SpendRx(id NodeID, secs float64) {
	s.rx[id] += secs
	if id%5 == 0 && int(id)+1 < len(s.nodes) {
		s.medium.SetListening(id+1, false)
	}
}

// withoutTables occupies every table slot with an empty table for a radius
// no broadcast uses, so the medium can only sweep the index.
func withoutTables(m *Medium) {
	for len(m.tables) < maxNeighborTables {
		m.tables = append(m.tables, m.idx.Neighbors(-1-float64(len(m.tables))))
	}
}

func runStorm(cfg Config, faultSeed int64, useTables bool) *storm {
	field := geom.NewField(30, 30)
	positions := geom.UniformDeploy(field, 150, stats.NewRNG(11))
	// Coincident nodes and nodes exactly one range apart.
	positions = append(positions, positions[0], positions[1],
		geom.Point{X: positions[2].X + 3, Y: positions[2].Y},
		geom.Point{X: positions[3].X, Y: positions[3].Y - 7})

	s := &storm{engine: sim.NewEngine(), tx: make([]float64, len(positions)), rx: make([]float64, len(positions))}
	s.medium = NewMedium(cfg, s.engine, geom.NewIndex(field, positions, 3), stats.NewRNG(5), s)
	if !useTables {
		withoutTables(s.medium)
	}
	if faultSeed != 0 {
		s.medium.SetFaultInjector(&scriptedInjector{rng: stats.NewRNG(faultSeed)})
	}
	for i := range positions {
		n := &stormNode{id: NodeID(i), storm: s}
		s.nodes = append(s.nodes, n)
		s.medium.Attach(n.id, n)
	}

	script := stats.NewRNG(23)
	ranges := [2]float64{3, 7}
	for i := 0; i < 1500; i++ {
		if i%100 == 0 {
			for _, n := range s.nodes {
				s.medium.SetListening(n.id, script.Float64() < 0.8)
			}
		}
		from := NodeID(script.Uint64() % uint64(len(positions)))
		s.medium.SetListening(from, true)
		s.medium.Broadcast(Packet{From: from, Size: 25, Range: ranges[i%2], Payload: i})
		// Mostly shorter than an airtime, so receptions overlap and senders
		// find the channel busy.
		s.engine.Run(s.engine.Now() + script.Uniform(0, 0.012))
	}
	s.engine.Run(sim.Forever)
	return s
}

func TestBroadcastOverTablesMatchesIndexSweep(t *testing.T) {
	base := DefaultConfig()
	irregular := base
	irregular.Irregularity = 0.3
	fixed := base
	fixed.FixedPower = true
	lossy := base
	lossy.LossRate = 0.15
	noCSMA := base
	noCSMA.CSMAEnabled = false

	cases := []struct {
		name      string
		cfg       Config
		faultSeed int64
	}{
		{"default", base, 0},
		{"irregular", irregular, 0},
		{"fixed-power", fixed, 0},
		{"lossy", lossy, 0},
		{"no-csma", noCSMA, 0},
		{"faults", base, 77},
		{"irregular-fixed-faults", func() Config { c := irregular; c.FixedPower = true; return c }(), 78},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			table := runStorm(c.cfg, c.faultSeed, true)
			sweep := runStorm(c.cfg, c.faultSeed, false)

			if n := len(table.medium.tables); n < 1 || n > 2 {
				t.Fatalf("the storm built %d tables, want one per range in use", n)
			}
			if len(table.log) < 500 {
				t.Fatalf("only %d deliveries: the storm does not exercise the sweep", len(table.log))
			}
			if len(table.log) != len(sweep.log) {
				t.Fatalf("%d deliveries over tables, %d over the index sweep", len(table.log), len(sweep.log))
			}
			for i := range table.log {
				if table.log[i] != sweep.log[i] {
					t.Fatalf("delivery %d: %+v over tables, %+v over the index sweep", i, table.log[i], sweep.log[i])
				}
			}
			for i := range table.tx {
				if table.tx[i] != sweep.tx[i] || table.rx[i] != sweep.rx[i] {
					t.Fatalf("node %d ledger: tx %v rx %v over tables, tx %v rx %v over the index sweep",
						i, table.tx[i], table.rx[i], sweep.tx[i], sweep.rx[i])
				}
			}
			type counters struct{ sent, delivered, collided, lost, bytes, deferred, deliveryEvents uint64 }
			read := func(m *Medium) counters {
				var c counters
				c.sent, c.delivered, c.collided, c.lost, c.bytes = m.Stats()
				c.deferred, c.deliveryEvents = m.Deferred(), m.DeliveryEvents()
				return c
			}
			got, want := read(table.medium), read(sweep.medium)
			if got != want {
				t.Fatalf("counters: %+v over tables, %+v over the index sweep", got, want)
			}
			if got.deliveryEvents < got.delivered || (c.faultSeed == 0 && c.cfg.CSMAEnabled && got.deferred == 0) {
				t.Fatalf("implausible counters %+v", got)
			}
		})
	}
}

// TestSpendRxCanSilenceTheRestOfTheSweep is the storm's mid-sweep death in
// isolation: the rx charge to node 0 powers node 1 down before the sweep
// reaches it, so node 1 is neither charged nor delivered to — on either
// path.
func TestSpendRxCanSilenceTheRestOfTheSweep(t *testing.T) {
	for _, useTables := range []bool{true, false} {
		s := &storm{engine: sim.NewEngine(), tx: make([]float64, 3), rx: make([]float64, 3)}
		positions := []geom.Point{{X: 1, Y: 1}, {X: 1.5, Y: 1}, {X: 2, Y: 1}}
		s.medium = NewMedium(DefaultConfig(), s.engine, geom.NewIndex(geom.NewField(10, 10), positions, 3), stats.NewRNG(1), s)
		if !useTables {
			withoutTables(s.medium)
		}
		for i := range positions {
			n := &stormNode{id: NodeID(i), storm: s}
			s.nodes = append(s.nodes, n)
			s.medium.Attach(n.id, n)
		}
		s.medium.Broadcast(Packet{From: 2, Size: 25, Range: 3})
		s.engine.Run(sim.Forever)
		if s.rx[0] == 0 || s.rx[1] != 0 || len(s.log) != 1 || s.log[0].to != 0 {
			t.Fatalf("tables=%v: rx ledger %v, deliveries %+v; want node 0 charged and delivered to, node 1 neither",
				useTables, s.rx, s.log)
		}
	}
}

// TestBroadcastDoesNotAllocateOnceTableExists pins the steady state of the
// broadcast path: the first transmission at a range builds its table, and
// from then on a transmission and its deliveries allocate nothing.
func TestBroadcastDoesNotAllocateOnceTableExists(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CSMAEnabled = false
	m, engine := benchMedium(cfg)
	i := 0
	cycle := func() {
		m.Broadcast(Packet{From: NodeID(i % 64), Size: 25, Range: 10})
		engine.Run(engine.Now() + 1)
		i++
	}
	for k := 0; k < 64; k++ {
		cycle() // build the table, fill the delivery and event pools
	}
	if len(m.tables) != 1 {
		t.Fatalf("%d tables after broadcasting at one range", len(m.tables))
	}
	if avg := testing.AllocsPerRun(500, cycle); avg != 0 {
		t.Fatalf("a broadcast allocates %.2f objects once its table exists, want 0", avg)
	}
}
