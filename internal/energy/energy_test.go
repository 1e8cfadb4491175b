package energy

import (
	"math"
	"testing"

	"repro/internal/mapping"
	"repro/internal/models"
)

func TestTableIIITotals(t *testing.T) {
	s := TableIII()
	// The derived core totals must reproduce Table III within rounding.
	if got := s.ANNCorePowerW(); math.Abs(got-113.8e-3) > 0.5e-3 {
		t.Fatalf("ANN core power %v, want ≈113.8 mW", got)
	}
	if got := s.SNNCorePowerW(); math.Abs(got-19.66e-3) > 0.2e-3 {
		t.Fatalf("SNN core power %v, want ≈19.66 mW", got)
	}
	if got := s.AUPowerW(); math.Abs(got-0.9e-3) > 1e-6 {
		t.Fatalf("AU power %v, want 0.9 mW", got)
	}
	if got := s.ANNCoreAreaMM2(); math.Abs(got-0.528) > 0.01 {
		t.Fatalf("ANN core area %v, want ≈0.528", got)
	}
	if got := s.SNNCoreAreaMM2(); math.Abs(got-0.431) > 0.01 {
		t.Fatalf("SNN core area %v, want ≈0.431", got)
	}
	// Chip totals: ≈5.2 W and ≈86.7 mm².
	if got := s.ChipPowerW(); math.Abs(got-5.2) > 0.1 {
		t.Fatalf("chip power %v, want ≈5.2 W", got)
	}
	if got := s.ChipAreaMM2(); math.Abs(got-86.7) > 1.0 {
		t.Fatalf("chip area %v, want ≈86.7 mm²", got)
	}
	if snn, ann := s.SNNCoreCols*s.SNNCoreRows, s.ANNCoreCols*s.ANNCoreRows; snn != 182 || ann != 14 {
		t.Fatalf("core counts: %d SNN, %d ANN", snn, ann)
	}
}

func TestBreakdownTotal(t *testing.T) {
	b := Breakdown{CrossbarJ: 1, DriverJ: 2, NUJ: 3, ADCJ: 4, SRAMJ: 5, EDRAMJ: 6, NoCJ: 7, AUJ: 8}
	if b.Total() != 36 {
		t.Fatalf("Total = %v", b.Total())
	}
}

func TestDefaultActivityDecays(t *testing.T) {
	w := models.FullVGG13(10, 300, 91.6, 90.05)
	act := DefaultActivity(w, DefaultInputRate)
	if len(act) != len(w.WeightedLayers())+1 {
		t.Fatalf("activity length %d", len(act))
	}
	if act[0] != DefaultInputRate {
		t.Fatalf("input rate %v", act[0])
	}
	for i := 1; i < len(act); i++ {
		if act[i] > act[i-1]+1e-12 {
			t.Fatalf("activity increased at %d", i)
		}
		if act[i] < 0.02-1e-12 {
			t.Fatalf("activity below floor at %d: %v", i, act[i])
		}
	}
}

func TestANNLayerPooling(t *testing.T) {
	m := NewModel()
	pool := models.LayerShape{Kind: models.AvgPool, InC: 64, OutC: 64, K: 2, Stride: 2, InH: 32, InW: 32}
	rep := m.ANNLayer(mapping.Map(pool))
	if rep.Total() != 0 {
		t.Fatalf("pooling layer consumed crossbar energy: %v", rep.Total())
	}
}

func TestANNLayerEnergyPositiveAndConsistent(t *testing.T) {
	m := NewModel()
	l := models.LayerShape{Name: "c", Kind: models.Conv, InC: 64, OutC: 64, K: 3, Stride: 1, Pad: 1, InH: 16, InW: 16}
	rep := m.ANNLayer(mapping.Map(l))
	if rep.Total() <= 0 || rep.TimeS <= 0 || rep.PeakPowerW <= 0 {
		t.Fatalf("degenerate report %+v", rep)
	}
	if math.Abs(rep.AvgPowerW-rep.Total()/rep.TimeS) > 1e-12 {
		t.Fatal("AvgPower inconsistent with energy/time")
	}
	if rep.AvgPowerW > rep.PeakPowerW+1e-9 {
		t.Fatalf("average power %v exceeds peak %v", rep.AvgPowerW, rep.PeakPowerW)
	}
}

func TestSNNEnergyScalesWithTimesteps(t *testing.T) {
	// With the hardware provisioning fixed, energy is linear in the
	// integration window.
	m := NewModel()
	m.SNNParallelism = 4
	l := models.LayerShape{Name: "c", Kind: models.Conv, InC: 64, OutC: 64, K: 3, Stride: 1, Pad: 1, InH: 16, InW: 16}
	p := mapping.Map(l)
	e100 := m.SNNLayer(p, 100, 0.2, 0.1).Total()
	e200 := m.SNNLayer(p, 200, 0.2, 0.1).Total()
	if math.Abs(e200/e100-2) > 0.05 {
		t.Fatalf("energy not ∝ T: %v vs %v", e100, e200)
	}
}

func TestSNNEnergyScalesWithActivity(t *testing.T) {
	m := NewModel()
	l := models.LayerShape{Name: "c", Kind: models.Conv, InC: 64, OutC: 64, K: 3, Stride: 1, Pad: 1, InH: 16, InW: 16}
	p := mapping.Map(l)
	quiet := m.SNNLayer(p, 100, 0.02, 0.02).Total()
	busy := m.SNNLayer(p, 100, 0.5, 0.3).Total()
	if busy <= quiet {
		t.Fatal("higher spike rates must cost more energy")
	}
}

func TestSNNPeakBelowANNPeak(t *testing.T) {
	// Fig. 14: ANN peak power exceeds SNN peak power for every layer.
	m := NewModel()
	for _, w := range models.PaperWorkloads() {
		np := mapping.MapWorkload(w)
		act := DefaultActivity(w, DefaultInputRate)
		ann := m.ANNNetwork(np)
		snn := m.SNNNetwork(np, w.Timesteps, act)
		for i := range snn.Layers {
			if snn.Layers[i].PeakPowerW >= ann.Layers[i].PeakPowerW {
				t.Fatalf("%s layer %s: SNN peak %v ≥ ANN peak %v",
					w.Name, snn.Layers[i].Name, snn.Layers[i].PeakPowerW, ann.Layers[i].PeakPowerW)
			}
		}
	}
}

func TestPeakPowerRatioBand(t *testing.T) {
	// Fig. 14: the per-layer peak ratio reaches tens of × (paper: "as
	// high as ≈50×") on the deep benchmarks.
	m := NewModel()
	w := models.FullVGG13(10, 300, 91.6, 90.05)
	np := mapping.MapWorkload(w)
	act := DefaultActivity(w, DefaultInputRate)
	ann := m.ANNNetwork(np)
	snn := m.SNNNetwork(np, w.Timesteps, act)
	maxRatio := 0.0
	for i := range snn.Layers {
		if snn.Layers[i].PeakPowerW > 0 {
			if r := ann.Layers[i].PeakPowerW / snn.Layers[i].PeakPowerW; r > maxRatio {
				maxRatio = r
			}
		}
	}
	if maxRatio < 10 || maxRatio > 100 {
		t.Fatalf("max peak ratio %v outside the plausible Fig. 14 band", maxRatio)
	}
}

func TestSNNMorePowerEfficientButMoreEnergyHungry(t *testing.T) {
	// §VI-C: SNN mode draws much less average power but, integrated over
	// its evidence window, consumes more energy than one ANN pass.
	m := NewModel()
	for _, w := range []models.Workload{
		models.FullVGG13(10, 300, 91.6, 90.05),
		models.FullAlexNet(),
		models.FullSVHNNet(),
	} {
		np := mapping.MapWorkload(w)
		act := DefaultActivity(w, DefaultInputRate)
		ann := m.ANNNetwork(np)
		snn := m.SNNNetwork(np, w.Timesteps, act)
		pRatio := ann.AvgPowerW / snn.AvgPowerW
		eRatio := snn.EnergyJ / ann.EnergyJ
		if pRatio < 5 {
			t.Fatalf("%s: power advantage %v below the ≥6.25× band", w.Name, pRatio)
		}
		if eRatio < 1.5 || eRatio > 15 {
			t.Fatalf("%s: SNN/ANN energy ratio %v outside the ≈5-10× band", w.Name, eRatio)
		}
	}
}

func TestSNNMemoryDominatesBreakdown(t *testing.T) {
	// Fig. 15(a): SRAM + eDRAM dominate the SNN-mode energy split.
	m := NewModel()
	w := models.FullVGG13(10, 300, 91.6, 90.05)
	np := mapping.MapWorkload(w)
	snn := m.SNNNetwork(np, w.Timesteps, DefaultActivity(w, DefaultInputRate))
	memShare := (snn.SRAMJ + snn.EDRAMJ) / snn.EnergyJ
	if memShare < 0.3 {
		t.Fatalf("SNN memory share %v, expected dominant (paper: 36.6%% SRAM alone)", memShare)
	}
}

func TestANNCrossbarDACDominateBreakdown(t *testing.T) {
	// Fig. 15(b): crossbars and DACs dominate the ANN-mode energy split
	// (paper: 65.5% from the spiking cores' counterpart components).
	m := NewModel()
	w := models.FullVGG13(10, 300, 91.6, 90.05)
	np := mapping.MapWorkload(w)
	ann := m.ANNNetwork(np)
	share := (ann.CrossbarJ + ann.DriverJ) / ann.EnergyJ
	if share < 0.4 {
		t.Fatalf("ANN crossbar+DAC share %v, expected dominant", share)
	}
}

func TestHybridBetweenSNNAndANN(t *testing.T) {
	// Fig. 17: hybrid energy sits below pure SNN; hybrid power sits below
	// pure ANN.
	m := NewModel()
	w := models.FullVGG13(10, 300, 91.6, 90.05)
	np := mapping.MapWorkload(w)
	act := DefaultActivity(w, DefaultInputRate)
	T := w.Timesteps
	snn := m.SNNNetwork(np, T, act)
	ann := m.ANNNetwork(np)
	hyb := m.HybridNetwork(np, T, 3, act)
	if hyb.EnergyJ >= snn.EnergyJ {
		t.Fatalf("hybrid energy %v not below SNN %v", hyb.EnergyJ, snn.EnergyJ)
	}
	if hyb.AvgPowerW >= ann.AvgPowerW {
		t.Fatalf("hybrid power %v not below ANN %v", hyb.AvgPowerW, ann.AvgPowerW)
	}
	// Fig. 17 protocol: deeper splits run shorter evidence windows
	// (Table II), and the combination draws more average power.
	hyb1 := m.HybridNetwork(np, 250, 1, act)
	hyb6 := m.HybridNetwork(np, 100, 6, act)
	if hyb6.AvgPowerW <= hyb1.AvgPowerW {
		t.Fatalf("power should grow toward the ANN end of the sweep: %v vs %v", hyb1.AvgPowerW, hyb6.AvgPowerW)
	}
}

func TestHybridIncludesAU(t *testing.T) {
	m := NewModel()
	w := models.FullVGG13(10, 300, 91.6, 90.05)
	np := mapping.MapWorkload(w)
	act := DefaultActivity(w, DefaultInputRate)
	hyb := m.HybridNetwork(np, 300, 2, act)
	if hyb.AUJ <= 0 {
		t.Fatal("hybrid run must account accumulator energy")
	}
	ann := m.ANNNetwork(np)
	if ann.AUJ != 0 {
		t.Fatal("pure ANN must not use the AU")
	}
}

func TestSpikingActivityReducesDeepLayerEnergy(t *testing.T) {
	// The Fig. 4 effect: with decaying activity, deeper SNN layers cost
	// less per MAC than shallow ones.
	m := NewModel()
	w := models.FullVGG13(10, 300, 91.6, 90.05)
	np := mapping.MapWorkload(w)
	act := DefaultActivity(w, DefaultInputRate)
	snn := m.SNNNetwork(np, w.Timesteps, act)
	weighted := w.WeightedLayers()
	// A layer's MACs per pass: every output neuron reads its receptive
	// field once.
	macs := func(l models.LayerShape) float64 { return float64(l.OutputNeurons()) * float64(l.Rf()) }
	first := snn.Layers[0].Total() / macs(weighted[0])
	last := snn.Layers[9].Total() / macs(weighted[9]) // conv5_2
	if last >= first {
		t.Fatalf("deep-layer energy/MAC %v not below shallow %v", last, first)
	}
}

func TestModeString(t *testing.T) {
	if ANN.String() != "ANN" || SNN.String() != "SNN" {
		t.Fatal("mode strings wrong")
	}
}

func TestMeasuredActivityDrivesSNNModel(t *testing.T) {
	// A sparser measured profile must reduce the modeled SNN energy.
	m := NewModel()
	w := models.FullVGG13(10, 300, 91.6, 90.05)
	np := mapping.MapWorkload(w)
	dense := make([]float64, len(w.WeightedLayers())+1)
	sparse := make([]float64, len(dense))
	for i := range dense {
		dense[i], sparse[i] = 0.35, 0.05
	}
	if m.SNNNetwork(np, 300, sparse).EnergyJ >= m.SNNNetwork(np, 300, dense).EnergyJ {
		t.Fatal("sparser measured activity must reduce energy")
	}
}
