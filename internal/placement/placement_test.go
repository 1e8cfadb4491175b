package placement

import (
	"testing"

	"repro/internal/mapping"
	"repro/internal/models"
	"repro/internal/noc"
)

func TestPlaceVGGFits(t *testing.T) {
	np := mapping.MapWorkload(models.FullVGG13(10, 300, 91.6, 90.05))
	a, err := Place(np, 14, 14)
	if err != nil {
		t.Fatal(err)
	}
	if a.NodesUsed != np.TotalNCs() {
		t.Fatalf("nodes used %d, want %d", a.NodesUsed, np.TotalNCs())
	}
	// No node may be assigned twice.
	seen := map[noc.Node]bool{}
	for _, la := range a.Layers {
		for _, n := range la.Nodes {
			if seen[n] {
				t.Fatalf("node %v assigned twice", n)
			}
			seen[n] = true
			if n.X < 0 || n.X >= 14 || n.Y < 0 || n.Y >= 14 {
				t.Fatalf("node %v out of mesh", n)
			}
		}
	}
}

func TestPlaceRejectsOversizedWorkload(t *testing.T) {
	np := mapping.MapWorkload(models.FullAlexNet())
	if _, err := Place(np, 4, 4); err == nil {
		t.Fatal("AlexNet cannot fit a 4×4 mesh")
	}
}

func TestSnakeOrderAdjacency(t *testing.T) {
	// Consecutive allocations in snake order must be mesh neighbours.
	np := mapping.MapWorkload(models.FullVGG13(10, 300, 91.6, 90.05))
	a, err := Place(np, 14, 14)
	if err != nil {
		t.Fatal(err)
	}
	var flat []noc.Node
	for _, la := range a.Layers {
		flat = append(flat, la.Nodes...)
	}
	mesh := noc.New(noc.DefaultConfig())
	for i := 1; i < len(flat); i++ {
		if mesh.Hops(flat[i-1], flat[i]) != 1 {
			t.Fatalf("allocation %d (%v → %v) not adjacent", i, flat[i-1], flat[i])
		}
	}
}

func TestSpillLayersHaveReducers(t *testing.T) {
	np := mapping.MapWorkload(models.FullAlexNet())
	a, err := Place(np, 20, 20) // AlexNet needs more than 196 cores
	if err != nil {
		t.Fatal(err)
	}
	foundSpill := false
	for _, la := range a.Layers {
		if la.Placement.NeedsADC() {
			foundSpill = true
			if !la.HasRed {
				t.Fatalf("spill layer %s has no reducer", la.Placement.Layer.Name)
			}
		} else if la.HasRed {
			t.Fatalf("non-spill layer %s has a reducer", la.Placement.Layer.Name)
		}
	}
	if !foundSpill {
		t.Fatal("AlexNet should have spill layers")
	}
}

func TestPoolingLayersGetNoCores(t *testing.T) {
	np := mapping.NetworkPlacement{
		Workload: models.FullLeNet5(),
	}
	for _, l := range models.FullLeNet5().Layers {
		np.Placements = append(np.Placements, mapping.Map(l))
	}
	a, err := Place(np, 14, 14)
	if err != nil {
		t.Fatal(err)
	}
	for i, la := range a.Layers {
		if np.Placements[i].Layer.Kind == models.AvgPool && len(la.Nodes) != 0 {
			t.Fatal("pooling layer got cores")
		}
	}
}

func TestSimulateTrafficANN(t *testing.T) {
	np := mapping.MapWorkload(models.FullVGG13(10, 300, 91.6, 90.05))
	a, err := Place(np, 14, 14)
	if err != nil {
		t.Fatal(err)
	}
	r := a.SimulateTraffic(ANNTraffic())
	if r.Stats.Packets <= 0 || r.ActivationBits <= 0 {
		t.Fatalf("no traffic: %+v", r)
	}
	if r.PartialSumBits <= 0 {
		t.Fatal("VGG's spill layers should produce partial-sum traffic")
	}
	if r.EnergyJ() <= 0 || r.MakespanNS <= 0 {
		t.Fatalf("degenerate report: %+v", r)
	}
}

func TestLocalityBeatsMeanHops(t *testing.T) {
	// Snake placement of consecutive layers should beat the
	// uniform-random (W+H)/3 mean-hop assumption of the analytic model.
	np := mapping.MapWorkload(models.FullVGG13(10, 300, 91.6, 90.05))
	a, err := Place(np, 14, 14)
	if err != nil {
		t.Fatal(err)
	}
	r := a.SimulateTraffic(ANNTraffic())
	if r.MeanHopsObserved >= noc.MeanHops(14, 14) {
		t.Fatalf("placed traffic (%.2f hops) no better than random (%.2f)",
			r.MeanHopsObserved, noc.MeanHops(14, 14))
	}
}

func TestSNNTrafficScalesWithRateAndT(t *testing.T) {
	np := mapping.MapWorkload(models.FullLeNet5())
	a, err := Place(np, 14, 14)
	if err != nil {
		t.Fatal(err)
	}
	snnTraffic := func(T int, rate float64) TrafficConfig {
		return TrafficConfig{ActivationBits: 8, PartialSumBits: 8, ActivityRate: rate, Timesteps: T}
	}
	small := a.SimulateTraffic(snnTraffic(10, 0.1))
	big := a.SimulateTraffic(snnTraffic(40, 0.1))
	if big.ActivationBits <= small.ActivationBits {
		t.Fatal("traffic must grow with timesteps")
	}
	quiet := a.SimulateTraffic(snnTraffic(10, 0.02))
	if quiet.EnergyJ() >= small.EnergyJ() {
		t.Fatal("lower spike rates must reduce NoC energy")
	}
}
