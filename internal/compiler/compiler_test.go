package compiler

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/mapping"
	"repro/internal/models"
	"repro/internal/placement"
)

func compiled(t *testing.T, w models.Workload, meshW, meshH int) *Schedule {
	t.Helper()
	np := mapping.MapWorkload(w)
	a, err := placement.Place(np, meshW, meshH)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Compile(a)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCompileVGGCoreCount(t *testing.T) {
	w := models.FullVGG13(10, 300, 91.6, 90.05)
	np := mapping.MapWorkload(w)
	s := compiled(t, w, 14, 14)
	// Every allocated core must get exactly one program.
	if len(s.Programs) != np.TotalNCs() {
		t.Fatalf("programs %d, want %d cores", len(s.Programs), np.TotalNCs())
	}
}

func TestCompileSynapseCoverage(t *testing.T) {
	// The union of per-core kernel slices must cover every weight exactly
	// once: Σ synapses == Σ Rf·K over weighted layers.
	w := models.FullVGG13(10, 300, 91.6, 90.05)
	s := compiled(t, w, 14, 14)
	var want int64
	for _, l := range w.WeightedLayers() {
		want += int64(l.Rf()) * int64(l.Kernels())
	}
	if s.TotalSynapses != want {
		t.Fatalf("synapses %d, want %d", s.TotalSynapses, want)
	}
}

func TestCompileRowRangesDisjointAndOrdered(t *testing.T) {
	w := models.FullAlexNet()
	s := compiled(t, w, 24, 24)
	byLayerCol := map[string][]CoreProgram{}
	for _, p := range s.Programs {
		key := p.Layer
		byLayerCol[key] = append(byLayerCol[key], p)
	}
	for layer, progs := range byLayerCol {
		for _, p := range progs {
			if p.RowLo < 0 || p.RowHi <= p.RowLo {
				t.Fatalf("%s: bad row range [%d,%d)", layer, p.RowLo, p.RowHi)
			}
			if p.Kernels <= 0 || p.Kernels > mapping.M {
				t.Fatalf("%s: kernels %d", layer, p.Kernels)
			}
			if p.Switches.Stack < 1 || p.Switches.Stack > mapping.ACsPerNC {
				t.Fatalf("%s: stack %d", layer, p.Switches.Stack)
			}
		}
	}
}

func TestCompileSpillCoresMarked(t *testing.T) {
	w := models.FullAlexNet()
	s := compiled(t, w, 24, 24)
	spill, local := 0, 0
	for _, p := range s.Programs {
		if p.EmitsPartialSums {
			spill++
			if p.Switches.Level != mapping.LevelADC {
				t.Fatalf("spill core at NU level %v", p.Switches.Level)
			}
		} else {
			local++
			if p.Switches.Level == mapping.LevelADC {
				t.Fatal("local core marked ADC")
			}
		}
	}
	if spill == 0 || local == 0 {
		t.Fatalf("AlexNet should mix spill (%d) and local (%d) cores", spill, local)
	}
}

func TestProgrammingCost(t *testing.T) {
	w := models.FullLeNet5()
	s := compiled(t, w, 14, 14)
	c := s.ProgrammingCost(device.DefaultParams())
	if c.Writes != s.TotalSynapses {
		t.Fatalf("writes %d, want %d", c.Writes, s.TotalSynapses)
	}
	if c.EnergyJ <= 0 || c.TimeS <= 0 {
		t.Fatalf("degenerate cost %+v", c)
	}
	// LeNet has ~61k weights → ~3 µJ at 50 fJ/write; sanity bounds.
	if c.EnergyJ > 1e-4 || c.EnergyJ < 1e-9 {
		t.Fatalf("programming energy %v J implausible", c.EnergyJ)
	}
}

func TestPipelineStagesAndLatency(t *testing.T) {
	small := compiled(t, models.FullMLP3(), 14, 14)
	big := compiled(t, models.FullVGG13(10, 300, 91.6, 90.05), 14, 14)
	if small.PipelineStages >= big.PipelineStages {
		t.Fatal("VGG must have a deeper pipeline than the MLP")
	}
	if small.PassLatencyNS <= 0 || big.PassLatencyNS <= small.PassLatencyNS {
		t.Fatalf("latencies: mlp %v, vgg %v", small.PassLatencyNS, big.PassLatencyNS)
	}
}

func TestRenderAndSummary(t *testing.T) {
	s := compiled(t, models.FullLeNet5(), 14, 14)
	var b bytes.Buffer
	s.Render(&b)
	out := b.String()
	for _, want := range []string{"compiled schedule", "conv1", "fc1", "stack="} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q", want)
		}
	}
}
