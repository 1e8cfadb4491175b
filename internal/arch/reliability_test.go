package arch

import (
	"context"
	"errors"
	"testing"

	"repro/internal/convert"
	"repro/internal/crossbar"
	"repro/internal/device"
	"repro/internal/mapping"
	"repro/internal/models"
	"repro/internal/obs"
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
	before := evalST(t, st, in)
	for round := 0; round < mapping.ACsPerNC-1; round++ {
		if !st.Retire(0) {
			t.Fatalf("retirement %d refused with spares left", round)
		}
		after := evalST(t, st, in)
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

// TestCompileScansOnlyRoutedArrays pins that a compile programs, injects
// and BISTs exactly the cores its session routes: under write-verify,
// which retires nothing, the chip scans one array per routed slot, and
// the observer's program record carries the same scan reads as the chip
// health. A hybrid compile lowers each stage once, so its tail builds
// no throwaway spiking core.
func TestCompileScansOnlyRoutedArrays(t *testing.T) {
	mlp, _ := chipFixture(t)
	var lenet *walkModel
	for _, m := range walkMatrix(t) {
		if m.name == "hybrid-lenet" {
			lenet = &m
		}
	}
	cases := []struct {
		name string
		c    *convert.Converted
		opts []Option
	}{
		{"ann-mlp", mlp, []Option{WithMode(ModeANN)}},
		{"snn-mlp", mlp, []Option{WithMode(ModeSNN), WithTimesteps(5)}},
		{"hybrid-mlp-split1", mlp, []Option{WithMode(ModeHybrid), WithHybridSplit(1), WithTimesteps(5)}},
		{"hybrid-mlp-split2", mlp, []Option{WithMode(ModeHybrid), WithHybridSplit(2), WithTimesteps(5)}},
		{"hybrid-lenet-split2", lenet.c, lenet.opts},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			chip := NewChip(device.DefaultParams(), crossbar.Config{}, rng.New(1))
			chip.Rel = reliability.StudyConfig(0.01, reliability.ProtectWriteVerify)
			rec := obs.NewRecorder()
			sess, err := chip.Compile(tc.c, append(append([]Option(nil), tc.opts...), WithObserver(rec))...)
			if err != nil {
				t.Fatal(err)
			}
			slots := 0
			sess.forEachSuperTile(func(st *SuperTile) { slots += st.Slots() })
			h := chip.Health()
			if h.ArraysScanned != int64(slots) {
				t.Fatalf("chip scanned %d arrays, session routes %d slots", h.ArraysScanned, slots)
			}
			if p := rec.Snapshot().Program; p.BISTReads != h.ScanReads {
				t.Fatalf("program record BISTReads %d, chip health ScanReads %d", p.BISTReads, h.ScanReads)
			}
		})
	}
}
