package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/reliability"
)

func TestAblationNUHierarchy(t *testing.T) {
	r := AblationNUHierarchy()
	ratio := r.Rows[2].Value
	if ratio <= 1 {
		t.Fatalf("per-crossbar ADC must cost more: ratio %v", ratio)
	}
	if ratio > 20 {
		t.Fatalf("implausible ablation ratio %v", ratio)
	}
}

func TestAblationMorphableTiles(t *testing.T) {
	r := AblationMorphableTiles()
	morph, fixed128, fixed256 := r.Rows[0].Value, r.Rows[1].Value, r.Rows[2].Value
	if morph <= fixed256 {
		t.Fatalf("morphable utilization %v not above fixed-256 %v", morph, fixed256)
	}
	if morph < fixed128-1e-9 {
		t.Fatalf("morphable utilization %v below fixed-128 %v", morph, fixed128)
	}
}

func TestAblationMembraneStorage(t *testing.T) {
	r := AblationMembraneStorage()
	if ratio := r.Rows[2].Value; ratio <= 1.05 {
		t.Fatalf("SRAM membranes should cost visibly more: ratio %v", ratio)
	}
}

func TestAblationBitSerial(t *testing.T) {
	r := AblationBitSerialInput()
	if eRatio := r.Rows[2].Value; eRatio <= 1 {
		t.Fatalf("bit-serial should cost more energy: %v", eRatio)
	}
	if lRatio := r.Rows[3].Value; lRatio < 3.9 {
		t.Fatalf("bit-serial latency should be ≈4×: %v", lRatio)
	}
}

func TestAblationHybridSplitMonotoneEnergy(t *testing.T) {
	r := AblationHybridSplit()
	// At a fixed window, moving most of the network to the ANN side
	// reduces total energy (SNN evaluations dominate); individual steps
	// can wiggle when a moved layer is cheap in SNN mode but pays the
	// ANN ADC path.
	first, last := r.Rows[0].Value, r.Rows[len(r.Rows)-1].Value
	if last >= first {
		t.Fatalf("deep split energy %v not below shallow %v", last, first)
	}
	for _, row := range r.Rows {
		if row.Value <= 0 {
			t.Fatalf("non-positive energy at %s", row.Name)
		}
	}
}

func TestAblationISAACADCScalingMonotone(t *testing.T) {
	r := AblationISAACADCScaling()
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].Value <= r.Rows[i-1].Value {
			t.Fatal("ratio must grow with assumed ADC energy")
		}
	}
}

func TestAblationRender(t *testing.T) {
	var b bytes.Buffer
	AblationNUHierarchy().Render(&b)
	if !strings.Contains(b.String(), "NU-hierarchy") {
		t.Fatal("render missing title")
	}
}

func TestSensitivitySNNvsANN(t *testing.T) {
	r := SensitivitySNNvsANN()
	if len(r.Rows) != 6 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Low <= 0 || row.High <= 0 || row.Baseline <= 0 {
			t.Fatalf("degenerate row %+v", row)
		}
		if row.Span < 1 {
			t.Fatalf("span below 1: %+v", row)
		}
		// Even at extreme knob settings the SNN stays more energy-hungry
		// than the ANN — the headline survives the assumptions.
		if row.Low < 1 || row.High < 1 {
			t.Fatalf("headline inverted under %s: %+v", row.Knob, row)
		}
	}
	// Input activity must be among the most influential knobs.
	var actSpan, maxSpan float64
	for _, row := range r.Rows {
		if row.Knob == "InputActivity" {
			actSpan = row.Span
		}
		if row.Span > maxSpan {
			maxSpan = row.Span
		}
	}
	if actSpan < 1.1 {
		t.Fatalf("activity knob has no leverage: %v", actSpan)
	}
	_ = maxSpan
}

func TestSensitivityBaselines(t *testing.T) {
	r := SensitivityBaselines()
	if len(r.Rows) != 3 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		// Doubling a baseline cost must increase its ratio.
		if row.High <= row.Low {
			t.Fatalf("%s not monotone: %+v", row.Knob, row)
		}
		// Baselines stay worse than NEBULA across the swept range.
		if row.Low <= 1 {
			t.Fatalf("%s inverts at 0.5×: %+v", row.Knob, row)
		}
	}
	var b bytes.Buffer
	r.Render(&b)
	if !strings.Contains(b.String(), "Sensitivity") {
		t.Fatal("render missing header")
	}
}

func TestFaultResilienceCurve(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model and runs chip inference")
	}
	if raceEnabled {
		t.Skip("chip-level fault sweep exceeds the test timeout under the race detector")
	}
	r, err := FaultResilience(context.Background(), 16, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Curves) != 3 {
		t.Fatalf("curves %d", len(r.Curves))
	}
	for _, c := range r.Curves {
		if len(c.Points) != len(r.Rates) {
			t.Fatalf("%s: points %d", c.Protection, len(c.Points))
		}
	}
	none := r.Curve(reliability.ProtectNone)
	wv := r.Curve(reliability.ProtectWriteVerify)
	sr := r.Curve(reliability.ProtectSpareRemap)
	clean := none.Points[0]
	if clean.FaultRate != 0 || clean.Accuracy < 0.6 {
		t.Fatalf("clean point %+v", clean)
	}
	// At zero faults the protection machinery must be behavior-neutral:
	// all three curves share the baseline exactly.
	if wv.Points[0].Accuracy != clean.Accuracy || sr.Points[0].Accuracy != clean.Accuracy {
		t.Fatalf("rate-0 accuracy differs across protections: none %v wv %v sr %v",
			clean.Accuracy, wv.Points[0].Accuracy, sr.Points[0].Accuracy)
	}
	// One sample of resolution at this sample count.
	eps := 1.0 / 16
	// Unprotected curve visibly degrades at high rates.
	worst := none.Points[len(none.Points)-1]
	if worst.Accuracy >= clean.Accuracy {
		t.Fatalf("unprotected 20%%-fault point did not degrade: %v vs clean %v", worst.Accuracy, clean.Accuracy)
	}
	// The acceptance point: sparing+remap at 5% recovers to the baseline
	// (within one sample at this resolution).
	at5 := 3 // rates[3] == 0.05
	if r.Rates[at5] != 0.05 {
		t.Fatalf("rate layout changed: %v", r.Rates)
	}
	if sr.Points[at5].Accuracy < clean.Accuracy-eps {
		t.Fatalf("sparing+remap at 5%% did not recover: %v vs clean %v", sr.Points[at5].Accuracy, clean.Accuracy)
	}
	// Protection ordering at the acceptance point: each added mechanism
	// is at least as good as the previous (within one sample).
	if wv.Points[at5].Accuracy < none.Points[at5].Accuracy-eps {
		t.Fatalf("write-verify below unprotected at 5%%: %v vs %v",
			wv.Points[at5].Accuracy, none.Points[at5].Accuracy)
	}
	if sr.Points[at5].Accuracy < wv.Points[at5].Accuracy-eps {
		t.Fatalf("sparing+remap below write-verify at 5%%: %v vs %v",
			sr.Points[at5].Accuracy, wv.Points[at5].Accuracy)
	}
	// The mitigation pipeline actually did work at 5%.
	h := sr.Points[at5].Health
	if h.DevicesFaulted == 0 || h.FaultsFound == 0 || h.Repaired == 0 {
		t.Fatalf("sparing+remap health shows no mitigation: %+v", h)
	}
	if h.UnmitigatedFrac() > 0.02 {
		t.Fatalf("sparing+remap residual %v above degradation threshold", h.UnmitigatedFrac())
	}
	if none.Points[at5].Health.Repaired != 0 {
		t.Fatalf("unprotected curve repaired faults: %+v", none.Points[at5].Health)
	}
}

func TestFaultResilienceSmoke(t *testing.T) {
	// The tier-1 smoke pass: tiny samples and windows, but the full
	// pipeline — injection, BIST, write-verify, remapping, degradation
	// accounting — runs under all three protection levels (and under the
	// race detector, unlike the full curve above).
	r, err := FaultResilienceSmoke(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Curves) != 3 || len(r.Rates) != 2 {
		t.Fatalf("shape: %d curves, %d rates", len(r.Curves), len(r.Rates))
	}
	sr := r.Curve(reliability.ProtectSpareRemap)
	h := sr.Points[1].Health
	if h.DevicesFaulted == 0 || h.Repaired == 0 {
		t.Fatalf("smoke exercised no mitigation: %+v", h)
	}
	// Health totals are deterministic for a fixed seed: re-running the
	// faulted point must reproduce the report bit for bit.
	r2, err := FaultResilienceSweep(context.Background(), []float64{0, 0.05}, 4, 10, 150, 60)
	if err != nil {
		t.Fatal(err)
	}
	h2 := r2.Curve(reliability.ProtectSpareRemap).Points[1].Health
	if h != h2 {
		t.Fatalf("health not deterministic:\n%+v\n%+v", h, h2)
	}
	if r2.Curve(reliability.ProtectNone).Points[1].Accuracy != r.Curve(reliability.ProtectNone).Points[1].Accuracy {
		t.Fatal("accuracy not deterministic across identical sweeps")
	}
}
