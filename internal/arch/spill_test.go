package arch

import (
	"math"
	"testing"

	"repro/internal/convert"
	"repro/internal/crossbar"
	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/mapping"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/snn"
	"repro/internal/spikeplane"
	"repro/internal/tensor"
)

func TestRUSpillCoreProgramBlocks(t *testing.T) {
	c := NewRUSpillCore(device.DefaultParams(), crossbar.Config{}, 1.0, nil)
	// 3000 rows × 64 kernels: 1 column set → 16 ACs of rows per block
	// (2048) → 2 blocks.
	km := tensor.New(3000, 64)
	if err := c.Program(km, 1, 1); err != nil {
		t.Fatal(err)
	}
	if c.Blocks() != 2 {
		t.Fatalf("blocks %d, want 2", c.Blocks())
	}
	// 300 rows × 600 kernels: 5 column sets → 3 stacks per block (384
	// rows) → 1 block.
	c2 := NewRUSpillCore(device.DefaultParams(), crossbar.Config{}, 1.0, nil)
	if err := c2.Program(tensor.New(300, 600), 1, 1); err != nil {
		t.Fatal(err)
	}
	if c2.Blocks() != 1 {
		t.Fatalf("blocks %d, want 1", c2.Blocks())
	}
}

func TestRUSpillCoreRejectsColumnSpill(t *testing.T) {
	c := NewRUSpillCore(device.DefaultParams(), crossbar.Config{}, 1.0, nil)
	if err := c.Program(tensor.New(100, 3000), 1, 1); err == nil {
		t.Fatal("column spill accepted")
	}
}

func TestRUSpillCoreMatchesInCoreDynamics(t *testing.T) {
	// A spill core with quantization disabled must reproduce the in-core
	// SNN dynamics on a kernel that happens to fit both.
	r := rng.New(4)
	const rf, k = 2100, 32 // forces 2 blocks in the spill core
	km := tensor.New(rf, k)
	for i := range km.Data() {
		km.Data()[i] = (2*r.Float64() - 1) * 0.05
	}
	// An off-grid threshold avoids exact membrane/threshold ties (the
	// quantized weight grid makes sums land exactly on 1.0, where
	// floating-point summation order would decide the comparison).
	const vth = 0.9973
	sp := NewRUSpillCore(device.DefaultParams(), crossbar.Config{}, vth, nil)
	if err := sp.Program(km, 1, 1); err != nil {
		t.Fatal(err)
	}

	// Software reference with identical device quantization: use the
	// crossbar-quantized weights.
	ref := snn.NewDense("ref", quantizedTranspose(km, 1), nil, vth, snn.ResetBySubtraction)

	// Drive the spill core through the session engine's spillStep, with
	// the registers and scratch a run state would own.
	for _, b := range sp.blocks {
		b.Bake()
	}
	env := execEnv{skip: true}
	sr := stageRun{membranes: make([]float64, k), sums: make([]float64, k), total: make([]float64, k), fire: make([]float64, k)}
	var res RunResult
	var pl spikeplane.Plane
	for step := 0; step < 30; step++ {
		in := make([]float64, rf)
		for i := range in {
			if r.Bernoulli(0.2) {
				in[i] = 1
			}
		}
		pl.Pack(in)
		hw, err := env.spillStep(sp, &sr, 0, in, nil, &pl, &res)
		if err != nil {
			t.Fatal(err)
		}
		sw := ref.Step(tensor.FromSlice(append([]float64(nil), in...), rf))
		for kIdx := 0; kIdx < k; kIdx++ {
			if hw[kIdx] != sw.Data()[kIdx] {
				t.Fatalf("step %d kernel %d: hw %v vs sw %v", step, kIdx, hw[kIdx], sw.Data()[kIdx])
			}
		}
	}
	if res.ADCConversions == 0 {
		t.Fatal("spill path recorded no conversions")
	}
}

// quantizedTranspose returns the device-quantized out×in weight matrix
// corresponding to an in×out kernel matrix.
func quantizedTranspose(km *tensor.Tensor, wmax float64) *tensor.Tensor {
	p := device.DefaultParams()
	states := float64(p.States() - 1)
	rf, k := km.Dim(0), km.Dim(1)
	out := tensor.New(k, rf)
	for r := 0; r < rf; r++ {
		for c := 0; c < k; c++ {
			v := km.At(r, c)
			mag := math.Abs(v)
			if mag > wmax {
				mag = wmax
			}
			q := math.Round(mag/wmax*states) / states * wmax
			if v < 0 {
				q = -q
			}
			out.Set(q, c, r)
		}
	}
	return out
}

func TestChipRunsSpilledDenseStage(t *testing.T) {
	// A network with a >2048-input dense layer executes end-to-end on the
	// chip via the RU spill path.
	r := rng.New(33)
	spec := dataset.Spec{Name: "wide", Classes: 4, Channels: 12, Size: 16, Noise: 0.1, Jitter: 1}
	d := dataset.Generate(spec, 60, 9)
	net := nn.NewNetwork("wide-mlp",
		nn.NewFlatten("flat"),
		nn.NewLinear("fc1", 12*16*16, 32, r), // Rf = 3072 > 2048
		nn.NewReLU("relu1"),
		nn.NewLinear("fc2", 32, 4, r),
	)
	conv, err := convert.Convert(net, d, convert.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The mapping agrees this layer spills onto the ADC path.
	if FitsInCore(3072, 32) {
		t.Fatal("test premise broken: layer fits one core")
	}
	fcShape := models.LayerShape{Kind: models.FC, InC: 3072, OutC: 32, InH: 1, InW: 1}
	if !mapping.Map(fcShape).NeedsADC() {
		t.Fatal("mapping disagrees: fc1 should need the ADC path")
	}

	chip := NewChip(device.DefaultParams(), crossbar.Config{}, nil)
	img, _ := d.Sample(0)
	res, err := snnOnce(chip, conv, img, 20, snn.NewPoissonEncoder(1.0, rng.New(2)))
	if err != nil {
		t.Fatal(err)
	}
	if res.ADCConversions == 0 {
		t.Fatal("spilled stage did not digitize partial sums")
	}
	if res.Output.Size() != 4 {
		t.Fatalf("output size %d", res.Output.Size())
	}
}
