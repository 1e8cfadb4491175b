package arch

import (
	"context"
	"errors"
	"testing"

	"repro/internal/crossbar"
	"repro/internal/device"
	"repro/internal/mapping"
	"repro/internal/models"
	"repro/internal/reliability"
	"repro/internal/rng"
	"repro/internal/snn"
	"repro/internal/tensor"
)

func TestSuperTileRetireRelocatesSlot(t *testing.T) {
	p := device.DefaultParams()
	st := NewSuperTile(p, crossbar.Config{}, nil)
	// One 128×128 slot in use → 15 physical spares available.
	w := tensor.New(mapping.M, mapping.M)
	r := rng.New(3)
	for i := range w.Data() {
		w.Data()[i] = 2*r.Float64() - 1
	}
	if err := st.Program(w, 1); err != nil {
		t.Fatal(err)
	}
	in := make([]float64, mapping.M)
	for i := range in {
		in[i] = r.Float64()
	}
	before, err := st.Evaluate(in)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < mapping.ACsPerNC-1; round++ {
		if !st.Retire(0) {
			t.Fatalf("retirement %d refused with spares left", round)
		}
		after, err := st.Evaluate(in)
		if err != nil {
			t.Fatal(err)
		}
		// Reprogramming from stored pair targets round-trips exactly.
		for c := range after {
			if after[c] != before[c] {
				t.Fatalf("round %d col %d: %v != %v after retirement", round, c, after[c], before[c])
			}
		}
	}
	if st.Retire(0) {
		t.Fatal("retirement accepted with all physical arrays used or retired")
	}
}

func TestChipRunSNNWithProtectionMatchesClean(t *testing.T) {
	// At a 5% device fault rate the protected chip must classify like the
	// fault-free chip on the same samples.
	c, te := chipFixture(t)
	run := func(rel *reliability.Config) []int {
		chip := NewChip(device.DefaultParams(), crossbar.Config{}, rng.New(91))
		chip.Rel = rel
		r := rng.New(92)
		var preds []int
		for i := 0; i < 8; i++ {
			img, _ := te.Sample(i)
			res, err := snnOnce(chip, c, img, 40, snn.NewPoissonEncoder(1.0, r.Split()))
			if err != nil {
				t.Fatal(err)
			}
			preds = append(preds, res.Prediction)
		}
		return preds
	}
	clean := run(nil)
	prot := run(reliability.StudyConfig(0.05, reliability.ProtectSpareRemap))
	agree := 0
	for i := range clean {
		if clean[i] == prot[i] {
			agree++
		}
	}
	if agree < len(clean)-1 {
		t.Fatalf("protected chip diverged from clean: %v vs %v", prot, clean)
	}
}

func TestChipDegradedErrorSurfaces(t *testing.T) {
	// Write-verify cannot fix an extreme all-permanent fault population:
	// the run must refuse with a typed DegradedError, not compute garbage.
	c, te := chipFixture(t)
	chip := NewChip(device.DefaultParams(), crossbar.Config{}, rng.New(93))
	chip.Rel = &reliability.Config{
		Faults:     reliability.FaultProfile{DeviceRate: 0.3, PermanentFrac: 1, Mode: crossbar.StuckAP},
		Protection: reliability.ProtectWriteVerify,
		Policy:     reliability.DefaultPolicy(),
	}
	img, _ := te.Sample(0)
	_, err := snnOnce(chip, c, img, 5, snn.NewPoissonEncoder(1.0, rng.New(1)))
	var de *reliability.DegradedError
	if !errors.As(err, &de) {
		t.Fatalf("want DegradedError, got %v", err)
	}
	if !de.Report.Degraded || de.Report.Unmitigated == 0 {
		t.Fatalf("degraded report incomplete: %+v", de.Report)
	}
	if !chip.Health().Degraded {
		t.Fatal("chip health does not record the degradation")
	}
}

func TestChipHealthResetAndAccumulation(t *testing.T) {
	c, te := chipFixture(t)
	chip := NewChip(device.DefaultParams(), crossbar.Config{}, rng.New(94))
	chip.Rel = reliability.StudyConfig(0.02, reliability.ProtectWriteVerify)
	img, _ := te.Sample(0)
	if _, err := snnOnce(chip, c, img, 3, snn.NewPoissonEncoder(1.0, rng.New(1))); err != nil {
		t.Fatal(err)
	}
	h1 := chip.Health()
	if h1.ArraysScanned == 0 || h1.DevicesFaulted == 0 {
		t.Fatalf("health empty after faulted run: %+v", h1)
	}
	if _, err := snnOnce(chip, c, img, 3, snn.NewPoissonEncoder(1.0, rng.New(1))); err != nil {
		t.Fatal(err)
	}
	if h2 := chip.Health(); h2.ArraysScanned <= h1.ArraysScanned {
		t.Fatalf("health did not accumulate: %+v vs %+v", h2, h1)
	}
	chip.ResetHealth()
	if h := chip.Health(); h != (reliability.Report{}) {
		t.Fatalf("reset left state: %+v", h)
	}
}

func TestHealthScanDeterministicAndScrub(t *testing.T) {
	var w models.Workload
	found := false
	for _, cand := range models.PaperWorkloads() {
		if cand.Name == "lenet5" {
			w, found = cand, true
		}
	}
	if !found {
		t.Fatal("lenet5 workload missing")
	}
	np := mapping.MapWorkload(w)
	rel := reliability.StudyConfig(0.05, reliability.ProtectSpareRemap)
	ctx := context.Background()
	r1, err := HealthScan(ctx, np, device.DefaultParams(), crossbar.Config{}, rel, 7)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := HealthScan(ctx, np, device.DefaultParams(), crossbar.Config{}, rel, 7)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatalf("health scan not deterministic:\n%+v\n%+v", r1, r2)
	}
	if r1.ArraysScanned == 0 || r1.Repaired == 0 {
		t.Fatalf("scan did nothing: %+v", r1)
	}
	r3, err := HealthScan(ctx, np, device.DefaultParams(), crossbar.Config{}, rel, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r3 == r1 {
		t.Fatal("different seeds produced identical scans")
	}
}

func TestRetentionScrubResetsDriftAge(t *testing.T) {
	c, te := chipFixture(t)
	rel := &reliability.Config{
		Faults:     reliability.FaultProfile{DriftTauSteps: 200},
		Protection: reliability.ProtectWriteVerify,
		Policy:     reliability.DefaultPolicy(),
	}
	rel.Policy.ScrubEverySteps = 4
	chip := NewChip(device.DefaultParams(), crossbar.Config{}, rng.New(95))
	chip.Rel = rel
	img, _ := te.Sample(0)
	if _, err := snnOnce(chip, c, img, 10, snn.NewPoissonEncoder(1.0, rng.New(1))); err != nil {
		t.Fatal(err)
	}
	h := chip.Health()
	if h.Refreshes == 0 {
		t.Fatalf("no scrub refreshes over 10 steps at period 4: %+v", h)
	}
	// Scrubbing every 4 steps bounds the drift age below the period.
	if h.MaxDriftAge >= 4 {
		t.Fatalf("scrub did not bound drift age: %d", h.MaxDriftAge)
	}
	// Without scrubbing the age grows to the full window.
	chip2 := NewChip(device.DefaultParams(), crossbar.Config{}, rng.New(95))
	rel2 := *rel
	rel2.Policy.ScrubEverySteps = 0
	chip2.Rel = &rel2
	if _, err := snnOnce(chip2, c, img, 10, snn.NewPoissonEncoder(1.0, rng.New(1))); err != nil {
		t.Fatal(err)
	}
	if h2 := chip2.Health(); h2.MaxDriftAge != 10 {
		t.Fatalf("unscrubbed drift age %d, want 10", h2.MaxDriftAge)
	}
}
