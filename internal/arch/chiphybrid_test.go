package arch

import (
	"math"
	"testing"

	"repro/internal/convert"
	"repro/internal/crossbar"
	"repro/internal/device"
	"repro/internal/reliability"
	"repro/internal/rng"
	"repro/internal/snn"
	"repro/internal/tensor"
)

func TestAccumulatorUnitRecoverRate(t *testing.T) {
	au := NewAccumulatorUnit(2.5)
	spike := tensor.FromSlice([]float64{1}, 1)
	quiet := tensor.FromSlice([]float64{0}, 1)
	// 3 spikes over 10 steps → rate 0.3 → activation 0.75.
	for i := 0; i < 10; i++ {
		if i < 3 {
			au.Accumulate(spike)
		} else {
			au.Accumulate(quiet)
		}
	}
	got := au.Read().Data()[0]
	if math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("AU read %v, want 0.75", got)
	}
	if au.Adds != 3 {
		t.Fatalf("adder ops %d, want 3 (event-driven adds)", au.Adds)
	}
	au.Reset()
	if au.Read() != nil {
		t.Fatal("Read after Reset should be nil")
	}
}

// hybridOnce is runOnce in hybrid mode: split trailing weighted layers
// in the ANN domain after T spiking timesteps driven by enc.
func hybridOnce(ch *Chip, c *convert.Converted, img *tensor.Tensor, split, T int, enc snn.Encoder) (*RunResult, error) {
	return runOnce(ch, c, img, WithMode(ModeHybrid), WithHybridSplit(split), WithTimesteps(T), WithSharedEncoder(enc))
}

func TestChipRunHybridClassifies(t *testing.T) {
	c, te := chipFixture(t)
	chip := NewChip(device.DefaultParams(), crossbar.Config{}, nil)
	correct := 0
	const n, T = 20, 60
	r := rng.New(31)
	for i := 0; i < n; i++ {
		img, label := te.Sample(i)
		res, err := hybridOnce(chip, c, img, 1, T, snn.NewPoissonEncoder(1.0, r.Split()))
		if err != nil {
			t.Fatal(err)
		}
		if res.Prediction == label {
			correct++
		}
		if res.Spikes <= 0 {
			t.Fatal("no spiking activity in hybrid front")
		}
	}
	if acc := float64(correct) / n; acc < 0.5 {
		t.Fatalf("hybrid hardware accuracy %.2f", acc)
	}
}

func TestChipRunHybridDeepSplit(t *testing.T) {
	// With all but one weighted layer in the ANN domain, accuracy should
	// approach the pure-ANN chip run.
	c, te := chipFixture(t)
	chip := NewChip(device.DefaultParams(), crossbar.Config{}, nil)
	r := rng.New(33)
	matches := 0
	const n, T = 15, 80
	for i := 0; i < n; i++ {
		img, _ := te.Sample(i)
		hyb, err := hybridOnce(chip, c, img, 2, T, snn.NewPoissonEncoder(1.0, r.Split()))
		if err != nil {
			t.Fatal(err)
		}
		ann, err := runOnce(chip, c, img, WithMode(ModeANN))
		if err != nil {
			t.Fatal(err)
		}
		if hyb.Prediction == ann.Prediction {
			matches++
		}
	}
	if matches < n*2/3 {
		t.Fatalf("deep hybrid agrees with ANN on only %d/%d", matches, n)
	}
}

func TestChipRunHybridSplitBounds(t *testing.T) {
	c, te := chipFixture(t)
	chip := NewChip(device.DefaultParams(), crossbar.Config{}, nil)
	img, _ := te.Sample(0)
	enc := snn.NewPoissonEncoder(1.0, rng.New(1))
	if _, err := hybridOnce(chip, c, img, 0, 5, enc); err == nil {
		t.Fatal("split 0 accepted")
	}
	if _, err := hybridOnce(chip, c, img, 3, 5, enc); err == nil {
		t.Fatal("all-ANN split accepted (no spiking layer left)")
	}
}

func TestChipFaultResilience(t *testing.T) {
	// Neuromorphic inference degrades gracefully under stuck-at faults
	// (§IV-D: "neuromorphic applications are known to be resilient").
	c, te := chipFixture(t)
	accAt := func(rate float64) float64 {
		chip := NewChip(device.DefaultParams(), crossbar.Config{}, rng.New(21))
		chip.Rel = &reliability.Config{
			Faults:     reliability.FaultProfile{DeviceRate: rate, PermanentFrac: 1, Mode: crossbar.StuckAP},
			Protection: reliability.ProtectNone,
		}
		correct := 0
		const n, T = 20, 60
		r := rng.New(23)
		for i := 0; i < n; i++ {
			img, label := te.Sample(i)
			res, err := snnOnce(chip, c, img, T, snn.NewPoissonEncoder(1.0, r.Split()))
			if err != nil {
				t.Fatal(err)
			}
			if res.Prediction == label {
				correct++
			}
		}
		return float64(correct) / n
	}
	clean := accAt(0)
	mild := accAt(0.01)
	severe := accAt(0.30)
	if clean < 0.5 {
		t.Fatalf("clean hardware accuracy %v", clean)
	}
	if mild < clean-0.30 {
		t.Fatalf("1%% faults collapsed accuracy: %v → %v", clean, mild)
	}
	if severe > clean {
		t.Fatalf("30%% faults should not help: %v vs clean %v", severe, clean)
	}
}
