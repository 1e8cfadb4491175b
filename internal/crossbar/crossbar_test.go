package crossbar

import (
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/rng"
	"repro/internal/tensor"
)

func idealDot(w *tensor.Tensor, x []float64) []float64 {
	rows, cols := w.Dim(0), w.Dim(1)
	out := make([]float64, cols)
	for c := 0; c < cols; c++ {
		for r := 0; r < rows; r++ {
			out[c] += x[r] * w.At(r, c)
		}
	}
	return out
}

func randWeights(r *rng.Rand, rows, cols int, wmax float64) *tensor.Tensor {
	w := tensor.New(rows, cols)
	for i := range w.Data() {
		w.Data()[i] = (2*r.Float64() - 1) * wmax
	}
	return w
}

func TestProgramShapeCheck(t *testing.T) {
	cb := New(4, 4, device.DefaultParams(), Config{}, nil)
	if err := cb.Program(tensor.New(3, 4), 1); err == nil {
		t.Fatal("wrong shape accepted")
	}
	if err := cb.Program(tensor.New(4, 4), 0); err == nil {
		t.Fatal("wmax 0 accepted")
	}
}

func TestMACMatchesIdealWithinQuantization(t *testing.T) {
	r := rng.New(1)
	p := device.DefaultParams()
	const rows, cols = 16, 8
	const wmax = 1.0
	w := randWeights(r, rows, cols, wmax)
	cb := New(rows, cols, p, Config{}, nil)
	if err := cb.Program(w, wmax); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, rows)
	for i := range x {
		x[i] = r.Float64()
	}
	got := readInto(t, cb, x, nil, 0, nil)
	want := idealDot(w, x)
	// Max quantization error per weight is wmax/(2·(states−1)); summed over
	// rows with |x|≤1 that bounds the dot-product error.
	bound := wmax / (2 * float64(p.States()-1)) * float64(rows)
	for c := range got {
		if math.Abs(got[c]-want[c]) > bound {
			t.Fatalf("col %d: crossbar %v vs ideal %v (bound %v)", c, got[c], want[c], bound)
		}
	}
}

func TestMACExactOnGridWeights(t *testing.T) {
	// Weights already on the device grid must be reproduced exactly.
	p := device.DefaultParams()
	cb := New(2, 2, p, Config{}, nil)
	q := 1.0 / float64(p.States()-1)
	w := tensor.FromSlice([]float64{q * 5, -q * 3, q * 15, 0}, 2, 2)
	if err := cb.Program(w, 1); err != nil {
		t.Fatal(err)
	}
	got := readInto(t, cb, []float64{1, 1}, nil, 0, nil)
	want := []float64{q*5 + q*15, -q * 3}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("col %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestEffectiveWeightQuantizes(t *testing.T) {
	p := device.DefaultParams()
	cb := New(1, 1, p, Config{}, nil)
	if err := cb.Program(tensor.FromSlice([]float64{0.5}, 1, 1), 1); err != nil {
		t.Fatal(err)
	}
	// 0.5 * 15 = 7.5 → level 8 → 8/15
	want := 8.0 / 15
	if got := cb.EffectiveWeight(0, 0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("effective weight %v, want %v", got, want)
	}
}

func TestNegativeWeightUsesMinusDevice(t *testing.T) {
	p := device.DefaultParams()
	cb := New(1, 1, p, Config{}, nil)
	if err := cb.Program(tensor.FromSlice([]float64{-1}, 1, 1), 1); err != nil {
		t.Fatal(err)
	}
	if got := cb.EffectiveWeight(0, 0); got != -1 {
		t.Fatalf("effective weight %v, want -1", got)
	}
	out := readInto(t, cb, []float64{1}, nil, 0, nil)
	if out[0] != -1 {
		t.Fatalf("MAC with negative weight: %v", out[0])
	}
}

func TestZeroInputRowsInactive(t *testing.T) {
	p := device.DefaultParams()
	cb := New(4, 1, p, Config{}, nil)
	w := tensor.New(4, 1).Fill(1)
	if err := cb.Program(w, 1); err != nil {
		t.Fatal(err)
	}
	var s Stats
	readInto(t, cb, []float64{0, 0, 1, 0}, nil, 0, &s)
	if s.ActiveRowSum != 1 {
		t.Fatalf("active rows %d, want 1", s.ActiveRowSum)
	}
	if s.MACs != 1 {
		t.Fatalf("MACs %d", s.MACs)
	}
}

func TestIRDropAttenuates(t *testing.T) {
	p := device.DefaultParams()
	w := tensor.New(8, 1).Fill(1)
	clean := New(8, 1, p, Config{}, nil)
	droopy := New(8, 1, p, Config{IRDropAlpha: 0.5}, nil)
	clean.Program(w, 1)
	droopy.Program(w, 1)
	x := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	a := readInto(t, clean, x, nil, 0, nil)
	b := readInto(t, droopy, x, nil, 0, nil)
	if b[0] >= a[0] {
		t.Fatalf("IR drop did not attenuate: %v vs %v", b[0], a[0])
	}
	// Fewer active rows → less droop (relative attenuation closer to 1).
	xSparse := []float64{1, 0, 0, 0, 0, 0, 0, 0}
	aS := readInto(t, clean, xSparse, nil, 0, nil)
	bS := readInto(t, droopy, xSparse, nil, 0, nil)
	if bS[0]/aS[0] <= b[0]/a[0] {
		t.Fatalf("sparse input should droop less: %v vs %v", bS[0]/aS[0], b[0]/a[0])
	}
}

func TestReadNoisePerturbs(t *testing.T) {
	p := device.DefaultParams()
	w := tensor.New(4, 1).Fill(0.5)
	cb := New(4, 1, p, Config{ReadNoiseSigma: 0.05}, nil)
	cb.Program(w, 1)
	x := []float64{1, 1, 1, 1}
	noise := rng.New(3)
	a := make([]float64, 1)
	b := make([]float64, 1)
	if err := cb.MACReadInto(a, x, nil, noise, nil); err != nil {
		t.Fatal(err)
	}
	if err := cb.MACReadInto(b, x, nil, noise, nil); err != nil {
		t.Fatal(err)
	}
	if a[0] == b[0] {
		t.Fatal("noisy MAC returned identical results")
	}
	// Noise must be small relative to the signal.
	ideal := 4 * (8.0 / 15)
	if math.Abs(a[0]-ideal)/ideal > 0.3 {
		t.Fatalf("noise too large: %v vs %v", a[0], ideal)
	}
}

func TestProgramEnergyProportionalToMoves(t *testing.T) {
	p := device.DefaultParams()
	cb := New(1, 1, p, Config{}, nil)
	cb.Program(tensor.FromSlice([]float64{1}, 1, 1), 1) // 0 → 15 levels
	e1 := cb.Stats().ProgramEnergyFJ
	if math.Abs(e1-p.WriteEnergyFJ) > 1e-9 {
		t.Fatalf("full-scale program energy %v, want %v", e1, p.WriteEnergyFJ)
	}
	cb.Program(tensor.FromSlice([]float64{1}, 1, 1), 1) // no move
	if cb.Stats().ProgramEnergyFJ != e1 {
		t.Fatal("reprogramming same value consumed energy")
	}
	cb.Program(tensor.FromSlice([]float64{-1}, 1, 1), 1) // 15→0 and 0→15
	e3 := cb.Stats().ProgramEnergyFJ
	if math.Abs(e3-3*p.WriteEnergyFJ) > 1e-9 {
		t.Fatalf("sign-flip program energy %v, want %v", e3, 3*p.WriteEnergyFJ)
	}
}

func TestUtilization(t *testing.T) {
	p := device.DefaultParams()
	cb := New(2, 2, p, Config{}, nil)
	w := tensor.FromSlice([]float64{1, 0, 0, 0}, 2, 2)
	cb.Program(w, 1)
	if u := cb.Utilization(); u != 0.25 {
		t.Fatalf("utilization %v, want 0.25", u)
	}
}

func TestMACInputLengthCheck(t *testing.T) {
	cb := New(4, 2, device.DefaultParams(), Config{}, nil)
	if err := cb.MACReadInto(make([]float64, 2), []float64{1}, nil, nil, nil); err == nil {
		t.Fatal("short input accepted")
	}
}

func BenchmarkMAC128(b *testing.B) {
	r := rng.New(1)
	p := device.DefaultParams()
	cb := New(128, 128, p, Config{}, nil)
	cb.Program(randWeights(r, 128, 128, 1), 1)
	x := make([]float64, 128)
	for i := range x {
		x[i] = r.Float64()
	}
	out := make([]float64, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cb.MACReadInto(out, x, nil, nil, nil)
	}
}

func TestProgramVariationPerturbsLevels(t *testing.T) {
	p := device.DefaultParams()
	clean := New(8, 8, p, Config{}, nil)
	noisy := New(8, 8, p, Config{ProgramVariationLevels: 1.5}, rng.New(7))
	w := tensor.New(8, 8).Fill(0.5)
	clean.Program(w, 1)
	noisy.Program(w, 1)
	diffs := 0
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			if clean.EffectiveWeight(r, c) != noisy.EffectiveWeight(r, c) {
				diffs++
			}
		}
	}
	if diffs == 0 {
		t.Fatal("program variation changed nothing")
	}
	// Levels must stay clamped to the device range.
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			if ew := noisy.EffectiveWeight(r, c); ew < -1 || ew > 1 {
				t.Fatalf("weight %v out of device range", ew)
			}
		}
	}
}

func TestProgramVariationWithoutRNGIsClean(t *testing.T) {
	p := device.DefaultParams()
	cb := New(2, 2, p, Config{ProgramVariationLevels: 2}, nil) // nil RNG
	w := tensor.New(2, 2).Fill(0.5)
	cb.Program(w, 1)
	want := 8.0 / 15
	for r := 0; r < 2; r++ {
		for c := 0; c < 2; c++ {
			if cb.EffectiveWeight(r, c) != want {
				t.Fatal("variation applied without an RNG")
			}
		}
	}
}

func TestInjectStuckFaults(t *testing.T) {
	p := device.DefaultParams()
	cb := New(16, 16, p, Config{}, nil)
	w := tensor.New(16, 16).Fill(0.5)
	cb.Program(w, 1)
	n := cb.InjectStuckFaults(rng.New(3), 0.1, StuckAP)
	if n == 0 {
		t.Fatal("no faults injected at 10%")
	}
	// Expect roughly 2·256·0.1 ≈ 51 faulted devices.
	if n < 20 || n > 90 {
		t.Fatalf("fault count %d implausible for 10%%", n)
	}
	// Outputs remain bounded and computable.
	x := make([]float64, 16)
	for i := range x {
		x[i] = 1
	}
	out := readInto(t, cb, x, nil, 0, nil)
	for _, v := range out {
		if v != v || v < -16 || v > 16 {
			t.Fatalf("fault corrupted MAC beyond physical range: %v", v)
		}
	}
	if cb.InjectStuckFaults(nil, 0.5, StuckAP) != 0 {
		t.Fatal("nil RNG must inject nothing")
	}
	if cb.InjectStuckFaults(rng.New(1), 0, StuckP) != 0 {
		t.Fatal("zero fraction must inject nothing")
	}
}

func TestStuckPBiasesPositive(t *testing.T) {
	p := device.DefaultParams()
	cb := New(8, 1, p, Config{}, nil)
	cb.Program(tensor.New(8, 1), 1) // all-zero weights
	cb.InjectStuckFaults(rng.New(5), 1.0, StuckP)
	// All plus and minus devices stuck at max → differential cancels.
	out := readInto(t, cb, []float64{1, 1, 1, 1, 1, 1, 1, 1}, nil, 0, nil)
	if out[0] != 0 {
		t.Fatalf("fully symmetric stuck-P should cancel: %v", out[0])
	}
}
