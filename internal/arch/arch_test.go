package arch

import (
	"context"
	"math"
	"sync"
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
	"repro/internal/train"
)

func randMatrix(r *rng.Rand, rows, cols int, scale float64) *tensor.Tensor {
	m := tensor.New(rows, cols)
	for i := range m.Data() {
		m.Data()[i] = (2*r.Float64() - 1) * scale
	}
	return m
}

// evalST reads x through st into a fresh K-wide buffer, noiseless.
func evalST(t *testing.T, st *SuperTile, x []float64) []float64 {
	t.Helper()
	out := make([]float64, st.cols)
	if err := st.EvaluateReadInto(out, x, nil, nil, nil, &EvalScratch{}); err != nil {
		t.Fatal(err)
	}
	return out
}

func idealDot(w *tensor.Tensor, x []float64) []float64 {
	out := make([]float64, w.Dim(1))
	for c := 0; c < w.Dim(1); c++ {
		for r := 0; r < w.Dim(0); r++ {
			out[c] += x[r] * w.At(r, c)
		}
	}
	return out
}

func TestSuperTileSingleAC(t *testing.T) {
	r := rng.New(1)
	st := NewSuperTile(device.DefaultParams(), crossbar.Config{}, nil)
	w := randMatrix(r, 27, 64, 1) // VGG conv1-like
	if err := st.Program(w, 1); err != nil {
		t.Fatal(err)
	}
	if st.NULevel() != mapping.LevelH0 {
		t.Fatalf("level %v, want H0", st.NULevel())
	}
	x := make([]float64, 27)
	for i := range x {
		x[i] = r.Float64()
	}
	got := evalST(t, st, x)
	want := idealDot(w, x)
	bound := 1.0 / (2 * 15) * 27 // quantization bound
	for c := range got {
		if math.Abs(got[c]-want[c]) > bound {
			t.Fatalf("col %d: %v vs %v", c, got[c], want[c])
		}
	}
}

func TestSuperTileHierarchySummation(t *testing.T) {
	// An Rf spanning multiple ACs must produce the same dot product as a
	// monolithic array — the current-domain summation claim of §IV-B3.
	r := rng.New(2)
	st := NewSuperTile(device.DefaultParams(), crossbar.Config{}, nil)
	const rf, k = 600, 100 // stack = 5 → H2
	w := randMatrix(r, rf, k, 1)
	if err := st.Program(w, 1); err != nil {
		t.Fatal(err)
	}
	if st.NULevel() != mapping.LevelH2 {
		t.Fatalf("level %v, want H2", st.NULevel())
	}
	x := make([]float64, rf)
	for i := range x {
		x[i] = r.Float64()
	}
	got := evalST(t, st, x)
	want := idealDot(w, x)
	bound := 1.0 / (2 * 15) * rf
	for c := range got {
		if math.Abs(got[c]-want[c]) > bound {
			t.Fatalf("col %d: %v vs %v (bound %v)", c, got[c], want[c], bound)
		}
	}
}

func TestSuperTileRejectsOversized(t *testing.T) {
	st := NewSuperTile(device.DefaultParams(), crossbar.Config{}, nil)
	if err := st.Program(tensor.New(3000, 10), 1); err == nil {
		t.Fatal("Rf > 16M accepted")
	}
	if err := st.Program(tensor.New(1000, 1000), 1); err == nil {
		t.Fatal("over-capacity layer accepted")
	}
}

func TestSuperTileUtilization(t *testing.T) {
	st := NewSuperTile(device.DefaultParams(), crossbar.Config{}, nil)
	if err := st.Program(tensor.New(27, 64).Fill(0.5), 1); err != nil {
		t.Fatal(err)
	}
	want := 27.0 * 64 / (128 * 128)
	if got := st.Utilization(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("utilization %v, want %v", got, want)
	}
}

func TestANNCoreSaturation(t *testing.T) {
	st := newNeuralCore(device.DefaultParams(), crossbar.Config{}, 1.0, nil)
	w := tensor.New(4, 2)
	w.Set(1, 0, 0)
	w.Set(1, 1, 0)
	w.Set(1, 2, 0)
	w.Set(-1, 0, 1)
	if err := st.Program(w, 1, 1); err != nil {
		t.Fatal(err)
	}
	st.ST.Bake()
	in := []float64{1, 1, 1, 0}
	var pl spikeplane.Plane
	pl.Pack(in)
	out := make([]float64, 2)
	var env execEnv
	var res RunResult
	var sc EvalScratch
	if err := env.annExec(st, in, &pl, nil, nil, out, &sc, &res); err != nil {
		t.Fatal(err)
	}
	if out[0] != 1 {
		t.Fatalf("column 0 should saturate at 1, got %v", out[0])
	}
	if out[1] != 0 {
		t.Fatalf("column 1 should rectify to 0, got %v", out[1])
	}
	if res.Cycles != 3 {
		t.Fatalf("pipeline cycles %d, want 3 (Fig. 8)", res.Cycles)
	}
}

// coreRig drives one programmed SNN core through the session engine's
// coreStep at output position 0, outside any session: the rig owns the
// replica bank and scratch a run state would.
type coreRig struct {
	core *neuralCore
	env  execEnv
	sr   stageRun
	res  RunResult
	pl   spikeplane.Plane
}

func newCoreRig(core *neuralCore) *coreRig {
	core.ST.Bake()
	r := &coreRig{core: core, env: execEnv{skip: true}}
	r.sr.neurons = neuronBank(core)
	r.sr.sums = make([]float64, core.ST.cols)
	r.sr.fire = make([]float64, core.ST.cols)
	return r
}

// step advances one timestep on input spikes in and returns the fired
// spike vector.
func (r *coreRig) step(t *testing.T, in []float64) []float64 {
	t.Helper()
	r.pl.Pack(in)
	out, err := r.env.coreStep(r.core, &r.sr, 0, in, &r.pl, &r.sr.outPlane, nil, false, &r.res)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// membrane is the normalized membrane potential of neuron i.
func (r *coreRig) membrane(i int) float64 { return r.sr.neurons[i].Membrane() }

func TestSNNCoreIntegrateAndFire(t *testing.T) {
	core := newNeuralCore(device.DefaultParams(), crossbar.Config{}, 1.0, nil)
	w := tensor.New(1, 1)
	w.Set(0.4, 0, 0) // quantized to 6/15 = 0.4
	if err := core.Program(w, 1, 1); err != nil {
		t.Fatal(err)
	}
	// 0.4 increments: fires on the 3rd step (1.2 ≥ 1).
	rig := newCoreRig(core)
	fires := 0
	fireStep := -1
	for i := 0; i < 5; i++ {
		out := rig.step(t, []float64{1})
		if out[0] == 1 {
			fires++
			if fireStep < 0 {
				fireStep = i
			}
		}
	}
	if fires == 0 {
		t.Fatal("neuron never fired")
	}
	if fireStep != 2 {
		t.Fatalf("first fire at step %d, want 2", fireStep)
	}
}

func TestSNNCoreMembranePersistsAcrossIdleSteps(t *testing.T) {
	// §IV-B4: membrane persists in the device with no refresh.
	core := newNeuralCore(device.DefaultParams(), crossbar.Config{}, 1.0, nil)
	w := tensor.New(1, 1)
	w.Set(0.4, 0, 0)
	if err := core.Program(w, 1, 1); err != nil {
		t.Fatal(err)
	}
	rig := newCoreRig(core)
	rig.step(t, []float64{1})
	m1 := rig.membrane(0)
	if m1 <= 0 {
		t.Fatal("no integration")
	}
	for i := 0; i < 10; i++ {
		rig.step(t, []float64{0}) // no spikes: wall must hold
	}
	if rig.membrane(0) != m1 {
		t.Fatalf("membrane decayed: %v → %v", m1, rig.membrane(0))
	}
}

func TestSNNCoreInhibition(t *testing.T) {
	core := newNeuralCore(device.DefaultParams(), crossbar.Config{}, 1.0, nil)
	w := tensor.New(2, 1)
	w.Set(0.5, 0, 0)
	w.Set(-0.5, 1, 0)
	if err := core.Program(w, 1, 1); err != nil {
		t.Fatal(err)
	}
	rig := newCoreRig(core)
	rig.step(t, []float64{1, 0})
	up := rig.membrane(0)
	rig.step(t, []float64{0, 1})
	down := rig.membrane(0)
	if down >= up {
		t.Fatalf("inhibitory input did not lower membrane: %v → %v", up, down)
	}
}

func TestSNNCoreRateTracksInput(t *testing.T) {
	core := newNeuralCore(device.DefaultParams(), crossbar.Config{}, 1.0, nil)
	w := tensor.New(1, 1)
	w.Set(1.0, 0, 0)
	if err := core.Program(w, 1, 1); err != nil {
		t.Fatal(err)
	}
	rig := newCoreRig(core)
	r := rng.New(9)
	const T = 600
	const rate = 0.3
	spikes := 0.0
	for i := 0; i < T; i++ {
		in := 0.0
		if r.Bernoulli(rate) {
			in = 1
		}
		spikes += rig.step(t, []float64{in})[0]
	}
	got := spikes / T
	if math.Abs(got-rate) > 0.05 {
		t.Fatalf("hardware rate %v for input rate %v", got, rate)
	}
}

func TestFitsInCore(t *testing.T) {
	if !FitsInCore(2048, 128) {
		t.Fatal("16M×M must fit")
	}
	if FitsInCore(2049, 128) {
		t.Fatal("Rf beyond 16M must not fit")
	}
	if FitsInCore(1024, 512) { // 8 stacks × 4 sets = 32 > 16
		t.Fatal("over-capacity must not fit")
	}
}

// Shared trained fixture for chip-level tests.
var (
	chipOnce sync.Once
	chipConv *convert.Converted
	chipANN  *nn.Network
	chipTest *dataset.Dataset
)

func chipFixture(t *testing.T) (*convert.Converted, *dataset.Dataset) {
	t.Helper()
	chipOnce.Do(func() {
		tr, te := dataset.TrainTest(dataset.MNISTLike, 400, 100, 77)
		chipTest = te
		chipANN = models.NewMLP3(1, 16, 10, rng.New(5))
		cfg := train.DefaultConfig()
		cfg.Epochs = 6
		train.Run(chipANN, tr, te, cfg)
		var err error
		chipConv, err = convert.Convert(chipANN, tr, convert.DefaultConfig())
		if err != nil {
			panic(err)
		}
	})
	return chipConv, chipTest
}

// runOnce compiles a session over c for img — fresh cores on every
// call, as a one-off hardware run sees them — and runs it once.
func runOnce(ch *Chip, c *convert.Converted, img *tensor.Tensor, opts ...Option) (*RunResult, error) {
	sess, err := ch.Compile(c, append([]Option{WithInputShape(img.Shape()...)}, opts...)...)
	if err != nil {
		return nil, err
	}
	return sess.Run(context.Background(), img)
}

// snnOnce is runOnce in SNN mode over T timesteps with encoder enc.
func snnOnce(ch *Chip, c *convert.Converted, img *tensor.Tensor, T int, enc snn.Encoder) (*RunResult, error) {
	return runOnce(ch, c, img, WithMode(ModeSNN), WithTimesteps(T), WithSharedEncoder(enc))
}

func TestChipRunSNNClassifies(t *testing.T) {
	c, te := chipFixture(t)
	chip := NewChip(device.DefaultParams(), crossbar.Config{}, nil)
	correct := 0
	const n, T = 25, 80
	r := rng.New(3)
	for i := 0; i < n; i++ {
		img, label := te.Sample(i)
		res, err := snnOnce(chip, c, img, T, snn.NewPoissonEncoder(1.0, r.Split()))
		if err != nil {
			t.Fatal(err)
		}
		if res.Prediction == label {
			correct++
		}
		if res.Spikes <= 0 || res.Cycles <= 0 {
			t.Fatalf("no hardware activity: %+v", res)
		}
	}
	acc := float64(correct) / n
	if acc < 0.5 {
		t.Fatalf("hardware SNN accuracy %.2f too low", acc)
	}
}

func TestChipRunANNMatchesSoftware(t *testing.T) {
	c, te := chipFixture(t)
	chip := NewChip(device.DefaultParams(), crossbar.Config{}, nil)
	swAcc := 0
	hwAcc := 0
	const n = 30
	for i := 0; i < n; i++ {
		img, label := te.Sample(i)
		res, err := runOnce(chip, c, img, WithMode(ModeANN))
		if err != nil {
			t.Fatal(err)
		}
		if res.Prediction == label {
			hwAcc++
		}
		batch := img.Reshape(1, img.Size())
		logits := c.Folded.Forward(batch.Reshape(1, 1, 16, 16), false)
		if logits.Row(0).ArgMax() == label {
			swAcc++
		}
	}
	if hwAcc < swAcc-6 {
		t.Fatalf("hardware ANN (%d/%d) trails software (%d/%d) too much", hwAcc, n, swAcc, n)
	}
}

func TestChipSNNWithNoiseStillWorks(t *testing.T) {
	// §IV-D resilience: device read noise should not destroy inference.
	c, te := chipFixture(t)
	chip := NewChip(device.DefaultParams(), crossbar.Config{ReadNoiseSigma: 0.05}, rng.New(11))
	correct := 0
	const n, T = 20, 80
	r := rng.New(13)
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
	if float64(correct)/n < 0.4 {
		t.Fatalf("noisy hardware accuracy %.2f collapsed", float64(correct)/n)
	}
}

func TestChipRunsGroupedConv(t *testing.T) {
	// Depthwise (grouped) convolutions map block-diagonally onto the
	// crossbar; the chip runner must execute them in SNN mode.
	r := rng.New(19)
	net := nn.NewNetwork("dw",
		nn.NewConv2D("dw", 4, 4, 3, 3, 1, 1, 4, r),
		nn.NewReLU("relu"),
		nn.NewFlatten("flat"),
		nn.NewLinear("fc", 4*8*8, 4, r),
	)
	d := dataset.Generate(dataset.Spec{Name: "x", Classes: 4, Channels: 4, Size: 8, Noise: 0.1, Jitter: 1}, 16, 1)
	conv, err := convert.Convert(net, d, convert.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	chip := NewChip(device.DefaultParams(), crossbar.Config{}, nil)
	img, _ := d.Sample(0)
	res, err := snnOnce(chip, conv, img, 20, snn.NewPoissonEncoder(1, rng.New(1)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.Size() != 4 {
		t.Fatalf("output size %d", res.Output.Size())
	}
	if res.Cycles <= 0 {
		t.Fatal("no hardware activity")
	}
}
