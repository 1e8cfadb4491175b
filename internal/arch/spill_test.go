package arch

import (
	"context"
	"math"
	"strings"
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
	"repro/internal/tensor"
)

func TestRUSpillCoreProgramBlocks(t *testing.T) {
	// 3000 rows × 64 kernels: 1 column set → 16 ACs of rows per block
	// (2048) → 2 blocks.
	c := programmedCore(t, tensor.New(3000, 64))
	if len(c.blocks) != 2 || c.rowBounds[1] != 2048 || c.rows() != 3000 {
		t.Fatalf("%d blocks with bounds %v, want 2 split at 2048", len(c.blocks), c.rowBounds)
	}
	// 300 rows × 600 kernels: 5 column sets → 3 stacks per block (384
	// rows) → 1 block.
	if c2 := programmedCore(t, tensor.New(300, 600)); len(c2.blocks) != 1 {
		t.Fatalf("blocks %d, want 1", len(c2.blocks))
	}
}

func TestRUSpillCoreRejectsColumnSpill(t *testing.T) {
	if _, err := newNeuralCore(device.DefaultParams(), crossbar.Config{}, nil, tensor.New(100, 3000), 1, 1); err == nil {
		t.Fatal("column spill accepted")
	}
}

func TestRUSpillCoreMatchesInCoreDynamics(t *testing.T) {
	// A spilled core must reproduce the software SNN dynamics with the
	// same per-block 8-bit conversion: RU registers integrate the sum of
	// the digitized block partials and reset by subtraction.
	r := rng.New(4)
	const rf, k = 2100, 32 // forces 2 blocks: rows [0, 2048) and [2048, 2100)
	km := tensor.New(rf, k)
	for i := range km.Data() {
		km.Data()[i] = (2*r.Float64() - 1) * 0.05
	}
	// An off-grid threshold avoids exact membrane/threshold ties.
	const vth = 0.9973
	core := programmedCore(t, km)
	core.VTh = vth
	rig := newCoreRig(core)

	// Software reference with identical device quantization: use the
	// crossbar-quantized weights, and digitize each block's partial sum
	// to the nearest of the ±1-range converter's 2^8 levels (half away
	// from zero), clipped to ±1. Partial sums of binary inputs are
	// multiples of the 1/15 weight grid, which never lands within 1/30
	// of a level step of a rounding tie, so summation order cannot
	// decide a conversion.
	wq := quantizedTranspose(km, 1)
	bounds := []int{0, 2048, rf}
	membranes := make([]float64, k)
	adc, fires := int64(0), 0
	for step := 0; step < 30; step++ {
		in := make([]float64, rf)
		for i := range in {
			if r.Bernoulli(0.2) {
				in[i] = 1
			}
		}
		hw := rig.step(t, in)
		for kIdx := 0; kIdx < k; kIdx++ {
			total := 0.0
			for b := 0; b+1 < len(bounds); b++ {
				part := 0.0
				for i := bounds[b]; i < bounds[b+1]; i++ {
					part += in[i] * wq.At(kIdx, i)
				}
				total += math.Max(-1, math.Min(1, math.Round(part*128)/128))
			}
			membranes[kIdx] += total
			sw := 0.0
			if membranes[kIdx] >= vth {
				sw = 1
				membranes[kIdx] -= vth
			}
			if hw[kIdx] != sw {
				t.Fatalf("step %d kernel %d: hw %v vs sw %v", step, kIdx, hw[kIdx], sw)
			}
			fires += int(sw)
		}
		adc += 2 * k // 20% input activity leaves no block silent
	}
	if fires == 0 {
		t.Fatal("no register fired: the comparison is vacuous")
	}
	if rig.res.ADCConversions != adc {
		t.Fatalf("spill path recorded %d conversions, want %d", rig.res.ADCConversions, adc)
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
	if bounds, err := rowBlocks(3072, 32); err != nil || len(bounds) != 3 {
		t.Fatalf("test premise broken: row blocks %v (%v), want 2", bounds, err)
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

// TestChipADCConversionsMatchMapping holds the chip's spill-path
// conversion count to the analytic mapper on the walk matrix's spill
// rows, whose weighted stages are dense or groups-1 conv with K ≤ 128:
// on the reference walk, which skips no block, every spilled stage
// digitizes mapping.Map's ADCConversionsPerEval × Evaluations partial
// sums per timestep when it runs spiking and once in the continuous
// pass.
func TestChipADCConversionsMatchMapping(t *testing.T) {
	ctx := context.Background()
	for _, m := range walkMatrix(t) {
		if !strings.Contains(m.name, "spill") {
			continue
		}
		sess := compileWalkSession(t, m.c, 0, m.opts...)
		var want int64
		spilled := 0
		for i, hw := range sess.stages {
			if hw.core == nil {
				continue
			}
			shape := models.LayerShape{Kind: models.FC, InC: hw.core.rows(), OutC: hw.outC, InH: 1, InW: 1}
			if hw.kind == "conv" {
				if hw.groups != 1 || hw.kh != hw.kw {
					t.Fatalf("%s: stage %s is outside the compared shapes", m.name, hw.name)
				}
				shape = models.LayerShape{Kind: models.Conv, InC: hw.inC, OutC: hw.outC, K: hw.kh,
					Stride: hw.stride, Pad: hw.pad, InH: hw.gather.h, InW: hw.gather.w}
			}
			if hw.outC > mapping.M {
				t.Fatalf("%s: stage %s has %d kernels; the models agree only for K ≤ %d", m.name, hw.name, hw.outC, mapping.M)
			}
			pl := mapping.Map(shape)
			if pl.NeedsADC() != hw.core.spills() {
				t.Fatalf("%s: stage %s: mapper ADC path %v, chip spills %v", m.name, hw.name, pl.NeedsADC(), hw.core.spills())
			}
			if hw.core.spills() {
				spilled++
			}
			per := int64(pl.ADCConversionsPerEval * pl.Evaluations)
			if i < sess.cut {
				per *= int64(sess.Timesteps())
			}
			want += per
		}
		if spilled == 0 {
			t.Fatalf("%s: no stage spills", m.name)
		}
		for i, img := range m.imgs {
			res, err := sess.RunReference(ctx, img)
			if err != nil {
				t.Fatal(err)
			}
			if res.ADCConversions != want {
				t.Fatalf("%s input %d: %d ADC conversions, mapper predicts %d", m.name, i, res.ADCConversions, want)
			}
		}
	}
}
