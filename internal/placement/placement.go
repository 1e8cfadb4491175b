// Package placement assigns a mapped workload's neural cores to physical
// mesh coordinates and simulates the resulting network-on-chip traffic.
//
// Package mapping decides *how many* cores each layer needs; this package
// decides *where* they sit on the 14×14 grid of Fig. 6(b) and replaces
// the analytic mean-hop energy approximation with routed, contended
// packet traffic: inter-layer activation/spike transfers and the
// partial-sum reduction trees of the multi-NC spill path.
package placement

import (
	"fmt"

	"repro/internal/mapping"
	"repro/internal/models"
	"repro/internal/noc"
)

// LayerAssignment is the physical placement of one weighted layer.
type LayerAssignment struct {
	Placement mapping.Placement
	// Nodes are the mesh coordinates of the layer's neural cores.
	Nodes []noc.Node
	// Reducer is the node hosting the layer's reduction RU (only set on
	// the ADC spill path).
	Reducer noc.Node
	HasRed  bool
}

// Assignment is a full workload placement.
type Assignment struct {
	Workload models.Workload
	Layers   []LayerAssignment
	MeshW    int
	MeshH    int
	// NodesUsed is the number of distinct cores allocated.
	NodesUsed int
}

// Place assigns cores to mesh nodes in snake (boustrophedon) order so
// that consecutive layers occupy adjacent cores, minimizing inter-layer
// hop counts. Layers are placed in network order; a layer's reduction RU
// (if any) is its first core's router. Placement fails if the workload
// needs more cores than the mesh provides.
func Place(np mapping.NetworkPlacement, meshW, meshH int) (*Assignment, error) {
	total := meshW * meshH
	a := &Assignment{Workload: np.Workload, MeshW: meshW, MeshH: meshH}
	next := 0
	nodeAt := func(i int) noc.Node {
		y := i / meshW
		x := i % meshW
		if y%2 == 1 { // snake: odd rows run right-to-left
			x = meshW - 1 - x
		}
		return noc.Node{X: x, Y: y}
	}
	for _, p := range np.Placements {
		la := LayerAssignment{Placement: p}
		n := p.NCsUsed
		if p.ACsUsed == 0 {
			// Pooling: no cores; it rides the producer's NU datapath.
			a.Layers = append(a.Layers, la)
			continue
		}
		if next+n > total {
			return nil, fmt.Errorf("placement: workload %s needs %d cores, mesh has %d",
				np.Workload.Name, next+n, total)
		}
		for i := 0; i < n; i++ {
			la.Nodes = append(la.Nodes, nodeAt(next))
			next++
		}
		if p.NeedsADC() {
			la.Reducer = la.Nodes[0]
			la.HasRed = true
		}
		a.Layers = append(a.Layers, la)
	}
	a.NodesUsed = next
	return a, nil
}

// TrafficReport summarizes one simulated inference's NoC behaviour.
type TrafficReport struct {
	Stats noc.Stats
	// MakespanNS is the time at which the last packet arrived.
	MakespanNS float64
	// ActivationBits / PartialSumBits split the traffic by purpose.
	ActivationBits int64
	PartialSumBits int64
	// MeanHopsObserved is hop-flits / flits — the realized locality,
	// comparable against the (W+H)/3 analytic assumption.
	MeanHopsObserved float64
}

// TrafficConfig parameterizes the traffic simulation.
type TrafficConfig struct {
	// ActivationBits per transferred activation (4 in ANN mode) or per
	// spike event (AER word in SNN mode).
	ActivationBits int
	// PartialSumBits per digitized partial sum on the spill path.
	PartialSumBits int
	// ActivityRate scales the number of transferred values (1 for ANN,
	// the spike rate for SNN mode).
	ActivityRate float64
	// Timesteps multiplies the whole pattern (1 for ANN).
	Timesteps int
}

// ANNTraffic returns the configuration for one ANN pass.
func ANNTraffic() TrafficConfig {
	return TrafficConfig{ActivationBits: 4, PartialSumBits: 8, ActivityRate: 1, Timesteps: 1}
}

// SimulateTraffic routes one inference worth of packets through the mesh:
// for each weighted layer, (1) spill cores send their digitized partial
// sums to the layer's reduction RU, and (2) the layer's output
// activations travel from its cores to every core of the next weighted
// layer (multicast modeled as per-destination unicast, as in
// dimension-ordered wormhole meshes without multicast support).
func (a *Assignment) SimulateTraffic(cfg TrafficConfig) TrafficReport {
	mesh := noc.New(noc.Config{
		Width: a.MeshW, Height: a.MeshH,
		LinkBits:       32,
		HopCycles:      2,
		ClockHz:        1.2e9,
		EnergyPerBitPJ: 0.02,
	})
	var report TrafficReport
	at := int64(0)
	// Find, for each layer with cores, the next layer with cores.
	withCores := make([]int, 0, len(a.Layers))
	for i, la := range a.Layers {
		if len(la.Nodes) > 0 {
			withCores = append(withCores, i)
		}
	}
	for step := 0; step < cfg.Timesteps; step++ {
		for wi, li := range withCores {
			la := a.Layers[li]
			p := la.Placement
			// (1) Partial-sum reduction.
			if la.HasRed {
				perCore := int(float64(p.ADCConversionsPerEval*p.Evaluations) /
					float64(len(la.Nodes)) * float64(cfg.PartialSumBits) * cfg.ActivityRate)
				if perCore > 0 {
					for _, n := range la.Nodes {
						if n == la.Reducer {
							continue
						}
						mesh.Send(n, la.Reducer, perCore, at)
						report.PartialSumBits += int64(perCore)
					}
				}
			}
			// (2) Activations to the next layer's cores.
			if wi+1 >= len(withCores) {
				continue
			}
			dst := a.Layers[withCores[wi+1]]
			values := float64(p.Layer.OutputNeurons()) * cfg.ActivityRate
			bitsTotal := values * float64(cfg.ActivationBits)
			perPair := int(bitsTotal / float64(len(la.Nodes)*len(dst.Nodes)))
			if perPair <= 0 {
				perPair = 1
			}
			for _, s := range la.Nodes {
				for _, d := range dst.Nodes {
					mesh.Send(s, d, perPair, at)
					report.ActivationBits += int64(perPair)
				}
			}
		}
	}
	report.Stats = mesh.Stats()
	report.MakespanNS = mesh.CyclesToNS(report.Stats.MakespanCycles)
	if report.Stats.Flits > 0 {
		report.MeanHopsObserved = float64(report.Stats.HopFlits) / float64(report.Stats.Flits)
	}
	return report
}

// EnergyJ returns the simulated NoC energy in joules.
func (r TrafficReport) EnergyJ() float64 { return r.Stats.EnergyPJ * 1e-12 }
