// Package noc models the 2-D mesh network-on-chip that connects NEBULA's
// neural cores (§IV-A, Fig. 6(b)). It provides dimension-ordered (XY)
// routing, a deterministic link-contention timing model, and per-bit hop
// energy accounting used by the chip-level energy analysis.
package noc

import (
	"fmt"
)

// Config holds mesh parameters. Values derive from the 1.2 GHz operating
// frequency of Table III and standard mesh-router assumptions.
type Config struct {
	Width, Height int
	// LinkBits is the flit width in bits.
	LinkBits int
	// HopCycles is the router+link traversal latency in clock cycles.
	HopCycles int
	// ClockHz is the network clock.
	ClockHz float64
	// EnergyPerBitPJ is the energy to move one bit one hop (router +
	// link), in picojoules.
	EnergyPerBitPJ float64
}

// DefaultConfig matches the 14×14 NC grid of Table III.
func DefaultConfig() Config {
	return Config{
		Width: 14, Height: 14,
		LinkBits:       32,
		HopCycles:      2,
		ClockHz:        1.2e9,
		EnergyPerBitPJ: 0.02,
	}
}

// Node identifies a mesh coordinate.
type Node struct{ X, Y int }

// String implements fmt.Stringer.
func (n Node) String() string { return fmt.Sprintf("(%d,%d)", n.X, n.Y) }

// link identifies a directed mesh link by its endpoints.
type link struct{ from, to Node }

// Mesh is a deterministic mesh simulator. It is not safe for concurrent
// use.
type Mesh struct {
	Cfg Config
	// busyUntil tracks, per directed link, the cycle at which the link
	// becomes free.
	busyUntil map[link]int64
	// stats
	packets   int64
	flits     int64
	hopFlits  int64
	energyPJ  float64
	lastCycle int64
}

// New creates a mesh.
func New(cfg Config) *Mesh {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		panic("noc: mesh dimensions must be positive")
	}
	return &Mesh{Cfg: cfg, busyUntil: make(map[link]int64)}
}

// InBounds reports whether n is a valid node.
func (m *Mesh) InBounds(n Node) bool {
	return n.X >= 0 && n.X < m.Cfg.Width && n.Y >= 0 && n.Y < m.Cfg.Height
}

// Route returns the XY (dimension-ordered) path from src to dst,
// inclusive of both endpoints.
func (m *Mesh) Route(src, dst Node) []Node {
	if !m.InBounds(src) || !m.InBounds(dst) {
		panic(fmt.Sprintf("noc: route %v→%v out of %d×%d mesh", src, dst, m.Cfg.Width, m.Cfg.Height))
	}
	path := []Node{src}
	cur := src
	for cur.X != dst.X {
		if cur.X < dst.X {
			cur.X++
		} else {
			cur.X--
		}
		path = append(path, cur)
	}
	for cur.Y != dst.Y {
		if cur.Y < dst.Y {
			cur.Y++
		} else {
			cur.Y--
		}
		path = append(path, cur)
	}
	return path
}

// Hops returns the Manhattan distance between two nodes.
func (m *Mesh) Hops(src, dst Node) int {
	dx := src.X - dst.X
	if dx < 0 {
		dx = -dx
	}
	dy := src.Y - dst.Y
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// Result reports the outcome of a packet send.
type Result struct {
	// ArrivalCycle is the cycle at which the tail flit reaches dst.
	ArrivalCycle int64
	// LatencyCycles is ArrivalCycle − injection cycle.
	LatencyCycles int64
	Hops          int
	Flits         int
	EnergyPJ      float64
}

// Send injects a packet of `bits` bits at cycle `at` and walks it through
// the mesh with wormhole-style link occupancy: each directed link is busy
// for the packet's full flit count, and a packet waits for every link on
// its path to free up. Deterministic and order-sensitive, the model
// captures serialization and contention without per-flit event simulation.
func (m *Mesh) Send(src, dst Node, bits int, at int64) Result {
	if bits <= 0 {
		panic("noc: packet must carry at least one bit")
	}
	flits := (bits + m.Cfg.LinkBits - 1) / m.Cfg.LinkBits
	path := m.Route(src, dst)
	hops := len(path) - 1
	cycle := at
	for i := 0; i < hops; i++ {
		l := link{path[i], path[i+1]}
		if m.busyUntil[l] > cycle {
			cycle = m.busyUntil[l]
		}
		// Head flit traverses in HopCycles; the link stays busy until the
		// tail flit has passed.
		cycle += int64(m.Cfg.HopCycles)
		m.busyUntil[l] = cycle + int64(flits-1)
	}
	arrival := cycle + int64(flits-1)
	if hops == 0 {
		arrival = at // local delivery
	}
	energy := float64(bits*hops) * m.Cfg.EnergyPerBitPJ
	m.packets++
	m.flits += int64(flits)
	m.hopFlits += int64(flits * hops)
	m.energyPJ += energy
	if arrival > m.lastCycle {
		m.lastCycle = arrival
	}
	return Result{
		ArrivalCycle:  arrival,
		LatencyCycles: arrival - at,
		Hops:          hops,
		Flits:         flits,
		EnergyPJ:      energy,
	}
}

// Stats summarizes traffic since construction.
type Stats struct {
	Packets  int64
	Flits    int64
	HopFlits int64
	EnergyPJ float64
	// MakespanCycles is the latest arrival seen.
	MakespanCycles int64
}

// Stats returns a snapshot of the accumulated counters.
func (m *Mesh) Stats() Stats {
	return Stats{
		Packets:        m.packets,
		Flits:          m.flits,
		HopFlits:       m.hopFlits,
		EnergyPJ:       m.energyPJ,
		MakespanCycles: m.lastCycle,
	}
}

// CyclesToNS converts cycles to nanoseconds at the mesh clock.
func (m *Mesh) CyclesToNS(c int64) float64 {
	return float64(c) / m.Cfg.ClockHz * 1e9
}

// MeanHops returns the average hop count of uniformly random traffic in
// an W×H mesh, the standard (W+H)/3 approximation, used by the analytic
// energy model for layer-to-layer traffic.
func MeanHops(w, h int) float64 {
	return (float64(w) + float64(h)) / 3
}

// TransferEnergyPJ estimates the energy of moving `bits` bits over the
// average mesh distance — the analytic counterpart of Send used when
// exact placement is not simulated.
func (m *Mesh) TransferEnergyPJ(bits float64) float64 {
	return bits * MeanHops(m.Cfg.Width, m.Cfg.Height) * m.Cfg.EnergyPerBitPJ
}
