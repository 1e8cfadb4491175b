package arch

import (
	"context"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/convert"
	"repro/internal/crossbar"
	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/reliability"
	"repro/internal/rng"
	"repro/internal/snn"
	"repro/internal/spikeplane"
	"repro/internal/tensor"
)

// compileWalkSession compiles a session over a fresh chip with read
// noise sigma (0: a noiseless chip with no noise generator, the regime
// where the production walk skips silent stages, windows and repeated
// timesteps).
func compileWalkSession(t *testing.T, c *convert.Converted, sigma float64, opts ...Option) *Session {
	t.Helper()
	var noise *rng.Rand
	if sigma > 0 {
		noise = rng.New(41)
	}
	sess, err := NewChip(device.DefaultParams(), crossbar.Config{ReadNoiseSigma: sigma}, noise).Compile(c, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// sameBits reports bitwise equality of two outputs.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// assertRunMatchesReference runs imgs through RunReference on one
// session, then through RunBatch on sessions compiled alike at
// parallelism 1, 4 and NumCPU, and requires bitwise-identical outputs,
// predictions and spike counts. On noiseless runs cycle/packet/access
// and crossbar counters may differ: skipped stages charge nothing —
// that is the production walk's accounting contract, not a divergence.
// Noisy runs skip nothing, so there every counter but the plane
// counters must match too. Every production counter, skip and repeat
// counters included, must be identical at every parallelism. The
// reference must report zero skip, packed-word and repeat counters;
// age, when positive, ages every session's arrays by that many steps
// before the runs, leaving their kernels stale.
func assertRunMatchesReference(t *testing.T, c *convert.Converted, imgs []*tensor.Tensor, sigma float64, age int64, opts ...Option) {
	t.Helper()
	ctx := context.Background()
	ref := compileWalkSession(t, c, sigma, opts...)
	ref.AgeRetention(age)
	want := make([]*RunResult, len(imgs))
	for i, img := range imgs {
		res, err := ref.RunReference(ctx, img)
		if err != nil {
			t.Fatal(err)
		}
		if res.PackedWords != 0 || res.SpikesSkipped != 0 || res.SilentStageSkips != 0 || res.RepeatReads != 0 {
			t.Fatalf("input %d: reference walk charged skip counters: %+v", i, res)
		}
		want[i] = res
	}
	var first []*RunResult
	for _, par := range []int{1, 4, runtime.NumCPU()} {
		sess := compileWalkSession(t, c, sigma, append(append([]Option(nil), opts...), WithParallelism(par))...)
		sess.AgeRetention(age)
		got, err := sess.RunBatch(ctx, imgs)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if first == nil {
			first = got
		}
		for i := range want {
			g, f := *got[i], *first[i]
			g.Output, f.Output = nil, nil
			if g != f {
				t.Fatalf("parallelism %d input %d: counters differ from parallelism 1: %+v vs %+v", par, i, g, f)
			}
			if !sameBits(want[i].Output.Data(), got[i].Output.Data()) {
				t.Fatalf("parallelism %d input %d: Run %v != RunReference %v (production walk not bitwise identical)",
					par, i, got[i].Output.Data(), want[i].Output.Data())
			}
			if got[i].Prediction != want[i].Prediction || got[i].Spikes != want[i].Spikes {
				t.Fatalf("parallelism %d input %d: prediction/spikes diverged: %+v vs %+v", par, i, got[i], want[i])
			}
			if sigma > 0 {
				g, w := *got[i], *want[i]
				g.Output, w.Output = nil, nil
				g.PackedWords, g.SpikesSkipped = 0, 0
				if g != w {
					t.Fatalf("parallelism %d input %d: noisy run counters diverged: %+v vs %+v", par, i, g, w)
				}
			}
		}
	}
}

// walkModel is one row of the identity matrix: a converted model, the
// images it runs and its compile options.
type walkModel struct {
	name string
	c    *convert.Converted
	imgs []*tensor.Tensor
	opts []Option
}

var (
	walkOnce   sync.Once
	walkModels []walkModel
)

// walkMatrix builds the identity matrix's models once: an SNN MLP, the
// same MLP fed a constant graded input every timestep (so the
// timestep-repeat cache fires on every step it may), the MLP fed
// uniform images through a gain-1 Poisson encoder at activity 0.01 and
// 1.0 (at 1.0 every timestep is the same binary plane, the repeat
// cache's binary branch), an SNN with a
// grouped (depthwise) conv stage, an SNN whose 3072-input dense stage
// spills onto the RU/ADC path, the MLP as a hybrid (split 1) and as an
// ANN, hybrid LeNet-5 split 2, a hybrid depthwise MobileNetV1, ANN
// LeNet-5, and three more spill rows: the wide MLP as an ANN, a hybrid
// whose continuous tail starts with a 3072-input dense stage, and an
// SNN whose 3×3×256 conv stage (Rf 2304) spills.
func walkMatrix(t *testing.T) []walkModel {
	t.Helper()
	mlp, te := chipFixture(t)
	walkOnce.Do(func() {
		conv := func(net *nn.Network, d *dataset.Dataset) *convert.Converted {
			c, err := convert.Convert(net, d, convert.DefaultConfig())
			if err != nil {
				panic(err)
			}
			return c
		}
		imgs := func(d *dataset.Dataset, n int) []*tensor.Tensor {
			out := make([]*tensor.Tensor, n)
			for i := range out {
				out[i], _ = d.Sample(i)
			}
			return out
		}
		dwData := dataset.Generate(dataset.Spec{Name: "x", Classes: 4, Channels: 4, Size: 8, Noise: 0.1, Jitter: 1}, 16, 1)
		dr := rng.New(19)
		dw := conv(nn.NewNetwork("dw",
			nn.NewConv2D("dw", 4, 4, 3, 3, 1, 1, 4, dr),
			nn.NewReLU("relu"),
			nn.NewFlatten("flat"),
			nn.NewLinear("fc", 4*8*8, 4, dr),
		), dwData)
		r := rng.New(33)
		wide := dataset.Generate(dataset.Spec{Name: "wide", Classes: 4, Channels: 12, Size: 16, Noise: 0.1, Jitter: 1}, 16, 9)
		spill := conv(nn.NewNetwork("wide-mlp",
			nn.NewFlatten("flat"),
			nn.NewLinear("fc1", 12*16*16, 32, r), // Rf = 3072 > 2048: spills
			nn.NewReLU("relu1"),
			nn.NewLinear("fc2", 32, 4, r),
		), wide)
		tailData := dataset.Generate(dataset.Spec{Name: "wide3", Classes: 4, Channels: 3, Size: 16, Noise: 0.1, Jitter: 1}, 16, 11)
		tr := rng.New(29)
		tail := conv(nn.NewNetwork("wide-tail",
			nn.NewConv2D("conv", 3, 12, 3, 3, 1, 1, 1, tr),
			nn.NewReLU("relu0"),
			nn.NewFlatten("flat"),
			nn.NewLinear("fc1", 12*16*16, 32, tr), // Rf = 3072 > 2048: spills after the cut
			nn.NewReLU("relu1"),
			nn.NewLinear("fc2", 32, 4, tr),
		), tailData)
		deep := dataset.Generate(dataset.Spec{Name: "deep", Classes: 4, Channels: 256, Size: 4, Noise: 0.1, Jitter: 1}, 16, 5)
		cr := rng.New(23)
		convSpill := conv(nn.NewNetwork("deep-conv",
			nn.NewConv2D("conv", 256, 8, 3, 3, 1, 1, 1, cr), // Rf = 2304 > 2048: spills
			nn.NewReLU("relu"),
			nn.NewFlatten("flat"),
			nn.NewLinear("fc", 8*4*4, 4, cr),
		), deep)
		lenet := conv(models.NewLeNet5(1, 16, 10, rng.New(6)), te)
		small := dataset.Generate(dataset.Spec{Name: "x", Classes: 4, Channels: 1, Size: 8, Noise: 0.1, Jitter: 1}, 16, 3)
		mobile := conv(models.NewMobileNetV1(1, 8, 4, rng.New(8)), small)
		shape, _ := te.Sample(0)
		bernoulli := WithEncoder(func(r *rng.Rand) snn.Encoder { return snn.NewPoissonEncoder(1, r) })
		walkModels = []walkModel{
			{"snn-mlp", mlp, imgs(te, 8), []Option{WithMode(ModeSNN), WithTimesteps(20), WithSeed(42)}},
			{"snn-mlp-constant", mlp, imgs(te, 4), []Option{WithMode(ModeSNN), WithTimesteps(10), WithSeed(42),
				WithEncoder(func(*rng.Rand) snn.Encoder { return directEnc{} })}},
			{"snn-mlp-bernoulli-0.01", mlp, uniformImgs(shape.Shape(), 0.01, 8), []Option{WithMode(ModeSNN),
				WithTimesteps(10), WithSeed(42), bernoulli}},
			{"snn-mlp-bernoulli-1", mlp, uniformImgs(shape.Shape(), 1, 8), []Option{WithMode(ModeSNN),
				WithTimesteps(10), WithSeed(42), bernoulli}},
			{"snn-dwconv", dw, imgs(dwData, 6), []Option{WithMode(ModeSNN), WithTimesteps(10), WithSeed(42),
				WithInputShape(4, 8, 8)}},
			{"snn-spill", spill, imgs(wide, 3), []Option{WithMode(ModeSNN), WithTimesteps(10), WithSeed(42),
				WithInputShape(12, 16, 16)}},
			{"hybrid-mlp", mlp, imgs(te, 8), []Option{WithMode(ModeHybrid), WithHybridSplit(1), WithTimesteps(20),
				WithSeed(42)}},
			{"ann-mlp", mlp, imgs(te, 8), []Option{WithMode(ModeANN), WithSeed(42)}},
			{"hybrid-lenet", lenet, imgs(te, 4), []Option{WithMode(ModeHybrid), WithHybridSplit(2), WithTimesteps(10),
				WithSeed(42), WithInputShape(1, 16, 16)}},
			{"hybrid-mobilenet", mobile, imgs(small, 4), []Option{WithMode(ModeHybrid), WithHybridSplit(4),
				WithTimesteps(8), WithSeed(42), WithInputShape(1, 8, 8)}},
			{"ann-lenet", lenet, imgs(te, 8), []Option{WithMode(ModeANN), WithSeed(42), WithInputShape(1, 16, 16)}},
			{"ann-spill", spill, imgs(wide, 3), []Option{WithMode(ModeANN), WithSeed(42), WithInputShape(12, 16, 16)}},
			{"hybrid-spill-tail", tail, imgs(tailData, 3), []Option{WithMode(ModeHybrid), WithHybridSplit(2),
				WithTimesteps(10), WithSeed(42), WithInputShape(3, 16, 16)}},
			{"snn-conv-spill", convSpill, imgs(deep, 3), []Option{WithMode(ModeSNN), WithTimesteps(10), WithSeed(42),
				WithInputShape(256, 4, 4)}},
		}
	})
	return walkModels
}

// uniformImgs returns n images of the given shape whose every pixel is
// activity: through a gain-1 Poisson encoder each input fires with
// that probability per timestep.
func uniformImgs(shape []int, activity float64, n int) []*tensor.Tensor {
	out := make([]*tensor.Tensor, n)
	for i := range out {
		out[i] = tensor.New(shape...)
		for j := range out[i].Data() {
			out[i].Data()[j] = activity
		}
	}
	return out
}

// TestSessionReferenceIdentity is the production walk's identity
// matrix: for every model, noiseless and at read noise 0.05, Run and
// RunReference agree bit for bit at parallelism 1, 4 and NumCPU.
// Noiseless runs exercise the silent-stage, silent-window and
// repeat-cache skips; noisy runs the full-width packed reads that must
// draw every noise value in the reference's order.
func TestSessionReferenceIdentity(t *testing.T) {
	for _, m := range walkMatrix(t) {
		for _, sigma := range []float64{0, 0.05} {
			m := m
			t.Run(m.name+"/noise="+map[bool]string{false: "0", true: "0.05"}[sigma > 0], func(t *testing.T) {
				assertRunMatchesReference(t, m.c, m.imgs, sigma, 0, m.opts...)
			})
		}
	}
	// Stale kernels: ageing without a Scrub invalidates every array's
	// baked kernel, so both walks fall back to the dense per-array read.
	// The conv rows pin that the fallback rebuilds a binary window's
	// values from its plane: the production walk gathers none.
	for _, m := range walkMatrix(t) {
		if m.name != "snn-mlp" && m.name != "snn-dwconv" && m.name != "hybrid-lenet" {
			continue
		}
		name := "stale-kernel/" // the MLP rows keep their original names
		if m.name != "snn-mlp" {
			name += m.name + "/"
		}
		for _, sigma := range []float64{0, 0.05} {
			m := m
			t.Run(name+"noise="+map[bool]string{false: "0", true: "0.05"}[sigma > 0], func(t *testing.T) {
				assertRunMatchesReference(t, m.c, m.imgs[:min(4, len(m.imgs))], sigma, 500, m.opts...)
			})
		}
	}
}

// TestSessionProductionEngagesPlanes pins that the identity matrix
// compares two different walks: production spiking runs read through
// packed planes (noisy ones too), the hybrid MobileNet's ANN tail
// starts with a conv stage whose gather table was derived at compile,
// and the reference never charges a packed word.
func TestSessionProductionEngagesPlanes(t *testing.T) {
	for _, m := range walkMatrix(t) {
		if strings.HasPrefix(m.name, "ann-") {
			continue
		}
		for _, sigma := range []float64{0, 0.05} {
			res, err := compileWalkSession(t, m.c, sigma, m.opts...).Run(context.Background(), m.imgs[0])
			if err != nil {
				t.Fatal(err)
			}
			if res.PackedWords == 0 {
				t.Fatalf("%s noise %v: production run read no packed words", m.name, sigma)
			}
			if sigma > 0 && (res.SilentStageSkips != 0 || res.RepeatReads != 0) {
				t.Fatalf("%s: noisy run skipped reads: %+v", m.name, res)
			}
		}
		if m.name == "hybrid-mobilenet" {
			sess := compileWalkSession(t, m.c, 0, m.opts...)
			if sess.cut == len(sess.stages) || sess.stages[sess.cut].kind != "conv" || sess.stages[sess.cut].gather == nil {
				t.Fatal("the ANN tail should start with a conv stage whose gather table was derived at compile")
			}
		}
	}
}

// TestSessionEventDrivenSkipsAndRepeats pins that the event machinery
// actually fires on a session-shaped workload and that its counters are
// a function of the input alone. A constant (DC) encoder makes every
// timestep identical, so after the first step the dense stage must
// serve every read from the timestep-repeat cache; so must all-ones
// Bernoulli input, whose planes are binary. Every run starts with an
// empty cache, so the repeat counts do not depend on earlier runs or on
// which recycled run state a batch worker was handed.
func TestSessionEventDrivenSkipsAndRepeats(t *testing.T) {
	c, te := chipFixture(t)
	const T = 10
	opts := []Option{WithMode(ModeSNN), WithTimesteps(T), WithSeed(42),
		WithEncoder(func(r *rng.Rand) snn.Encoder { return directEnc{} })}
	sess := compileWalkSession(t, c, 0, opts...)
	img, _ := te.Sample(0)
	res, err := sess.Run(context.Background(), img)
	if err != nil {
		t.Fatal(err)
	}
	if res.RepeatReads == 0 {
		t.Fatalf("constant input produced no repeat-cache hits: %+v", res)
	}
	// Identical planes every step: the first read misses, the rest of
	// the first dense stage's steps hit.
	if res.PackedWords == 0 {
		t.Fatal("packed path never engaged")
	}
	ref, err := compileWalkSession(t, c, 0, opts...).RunReference(context.Background(), img)
	if err != nil {
		t.Fatal(err)
	}
	od, dd := res.Output.Data(), ref.Output.Data()
	for j := range dd {
		if od[j] != dd[j] {
			t.Fatalf("col %d: repeat-cache run %v != reference %v", j, od[j], dd[j])
		}
	}
	// Run 2 gets run 1's recycled state (the arena is a free list no GC
	// empties), whose cache reset emptied: it hits exactly as often as
	// the cold run, and its crossbar stats match bitwise because hit
	// and miss fold identical per-read stats.
	res2, err := sess.Run(context.Background(), img)
	if err != nil {
		t.Fatal(err)
	}
	if res2.RepeatReads != res.RepeatReads {
		t.Fatalf("second run hit %d times, want the cold run's %d", res2.RepeatReads, res.RepeatReads)
	}
	if res2.Crossbar != res.Crossbar {
		t.Fatalf("replayed crossbar stats not bitwise identical: %+v vs %+v",
			res2.Crossbar, res.Crossbar)
	}
	od2 := res2.Output.Data()
	for j := range od {
		if od2[j] != od[j] {
			t.Fatalf("col %d: warm-cache run %v != cold run %v", j, od2[j], od[j])
		}
	}

	// All-ones Bernoulli input (binary planes): every image hits at
	// least T-1 times, and a second batch through the same session hits
	// exactly as often. The identity matrix holds the same row's counts
	// equal across parallelism.
	for _, m := range walkMatrix(t) {
		if m.name != "snn-mlp-bernoulli-1" {
			continue
		}
		bs := compileWalkSession(t, m.c, 0, append(append([]Option(nil), m.opts...), WithParallelism(4))...)
		minHits := int64(bs.cfg.Timesteps - 1)
		var first []*RunResult
		for pass := 0; pass < 2; pass++ {
			got, err := bs.RunBatch(context.Background(), m.imgs)
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = got
			}
			for i, r := range got {
				if r.RepeatReads < minHits {
					t.Fatalf("image %d: %d repeat hits on identical binary planes, want >= %d",
						i, r.RepeatReads, minHits)
				}
				if r.RepeatReads != first[i].RepeatReads {
					t.Fatalf("pass %d image %d: %d repeat hits, first batch had %d",
						pass, i, r.RepeatReads, first[i].RepeatReads)
				}
			}
		}
	}
}

// TestNoiselessGeneratorKeepsSkips pins that a noise generator alone
// does not turn the skips off: a chip that carries a generator (as every
// fault-injecting chip must) but reads at σ 0 draws nothing, so its runs
// must skip and hit the repeat cache exactly like the same chip without
// a generator — same outputs, same counters, MACs included.
func TestNoiselessGeneratorKeepsSkips(t *testing.T) {
	for _, m := range walkMatrix(t) {
		if m.name != "snn-mlp-bernoulli-1" {
			continue
		}
		run := func(noise *rng.Rand) []*RunResult {
			sess, err := NewChip(device.DefaultParams(), crossbar.Config{}, noise).Compile(m.c, m.opts...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sess.RunBatch(context.Background(), m.imgs)
			if err != nil {
				t.Fatal(err)
			}
			return got
		}
		plain, withGen := run(nil), run(rng.New(1))
		wantHits := int64(9) // T=10 identical all-ones planes: every step after the first
		for i := range plain {
			if !sameBits(plain[i].Output.Data(), withGen[i].Output.Data()) {
				t.Fatalf("image %d: outputs differ with a σ-0 generator: %v vs %v",
					i, withGen[i].Output.Data(), plain[i].Output.Data())
			}
			p, g := *plain[i], *withGen[i]
			p.Output, g.Output = nil, nil
			if p != g {
				t.Fatalf("image %d: counters differ with a σ-0 generator: %+v vs %+v", i, g, p)
			}
			if g.RepeatReads != wantHits {
				t.Fatalf("image %d: %d repeat reads, want %d", i, g.RepeatReads, wantHits)
			}
		}
	}
}

// directEnc feeds the raw image every timestep (a graded, constant
// plane) — the workload the timestep-repeat cache exists for.
type directEnc struct{}

func (directEnc) Encode(img *tensor.Tensor) *tensor.Tensor { return img.Clone() }

// TestSuperTileEvaluateReadPacked drives a programmed super-tile
// through the packed and index read paths with the same inputs and
// requires bitwise-identical column sums, covering sparse, dense,
// all-zero and noisy planes plus the stale-kernel fallback. Every
// packed read is repeated with a nil input, which stands for the
// binary plane's values.
func TestSuperTileEvaluateReadPacked(t *testing.T) {
	const rf, k = 200, 40 // stack=2 (second window ragged), sets=1
	r := rng.New(7)
	w := tensor.New(rf, k)
	for i := range w.Data() {
		w.Data()[i] = r.Float64()*2 - 1
	}
	build := func(noise *rng.Rand) *SuperTile {
		st := NewSuperTile(device.DefaultParams(), crossbar.Config{ReadNoiseSigma: 0}, noise)
		if err := st.Program(w, 1.0); err != nil {
			t.Fatal(err)
		}
		st.Bake()
		return st
	}
	st := build(nil)
	mkInput := func(density float64, seed uint64) ([]float64, *spikeplane.Plane) {
		rr := rng.New(seed)
		in := make([]float64, rf)
		for i := range in {
			if rr.Float64() < density {
				in[i] = 1
			}
		}
		var pl spikeplane.Plane
		pl.Pack(in)
		return in, &pl
	}
	for _, density := range []float64{0, 0.01, 0.1, 0.5, 1} {
		in, pl := mkInput(density, 11)
		want := make([]float64, k)
		got := make([]float64, k)
		var sc, scP EvalScratch
		if err := st.EvaluateReadInto(want, in, nil, nil, nil, &sc); err != nil {
			t.Fatal(err)
		}
		for _, input := range [][]float64{in, nil} {
			if err := st.EvaluateReadPacked(got, input, pl, nil, nil, &scP); err != nil {
				t.Fatal(err)
			}
			for c := range want {
				if want[c] != got[c] {
					t.Fatalf("density %v nil input %v col %d: packed %v != index %v", density, input == nil, c, got[c], want[c])
				}
			}
		}
	}
	// Noisy read: identical streams must produce identical sums — the
	// packed path must not skip silent windows when draws are at stake.
	stN := NewSuperTile(device.DefaultParams(), crossbar.Config{ReadNoiseSigma: 0.05}, rng.New(3))
	if err := stN.Program(w, 1.0); err != nil {
		t.Fatal(err)
	}
	stN.Bake()
	in, pl := mkInput(0.1, 13)
	want := make([]float64, k)
	got := make([]float64, k)
	var sc, scP EvalScratch
	if err := stN.EvaluateReadInto(want, in, nil, rng.New(99), nil, &sc); err != nil {
		t.Fatal(err)
	}
	for _, input := range [][]float64{in, nil} {
		if err := stN.EvaluateReadPacked(got, input, pl, rng.New(99), nil, &scP); err != nil {
			t.Fatal(err)
		}
		for c := range want {
			if want[c] != got[c] {
				t.Fatalf("noisy nil input %v col %d: packed %v != index %v", input == nil, c, got[c], want[c])
			}
		}
	}
	// Stale kernel: invalidate one array and require the transparent
	// index-path fallback to keep serving identical sums.
	stale := build(nil)
	stale.acs[stale.slotAC[0]].InjectStuckFaults(rng.New(5), 0.01, crossbar.StuckAP)
	if stale.acs[stale.slotAC[0]].KernelFresh() {
		t.Fatal("fault injection did not invalidate the kernel")
	}
	in2, pl2 := mkInput(0.1, 17)
	want2 := make([]float64, k)
	got2 := make([]float64, k)
	var sc2, scP2 EvalScratch
	if err := stale.EvaluateReadInto(want2, in2, nil, nil, nil, &sc2); err != nil {
		t.Fatal(err)
	}
	for _, input := range [][]float64{in2, nil} {
		if err := stale.EvaluateReadPacked(got2, input, pl2, nil, nil, &scP2); err != nil {
			t.Fatal(err)
		}
		for c := range want2 {
			if want2[c] != got2[c] {
				t.Fatalf("stale nil input %v col %d: fallback %v != index %v", input == nil, c, got2[c], want2[c])
			}
		}
	}
	var graded spikeplane.Plane
	graded.Pack(append([]float64{0.5}, make([]float64, rf-1)...))
	if err := st.EvaluateReadPacked(got, nil, &graded, nil, nil, &scP2); err == nil {
		t.Fatal("a nil input was accepted for a graded plane")
	}
	if cap(scP2.idx) == 0 {
		t.Fatal("stale fallback did not materialize plane indices")
	}
}

// TestCompileBakesKernels asserts the compile-time bake actually leaves
// every programmed array on the fast path.
func TestCompileBakesKernels(t *testing.T) {
	c, _ := chipFixture(t)
	sess := compileSession(t, c, WithMode(ModeSNN), WithTimesteps(20))
	fresh, stale := 0, 0
	for _, hw := range sess.stages {
		if hw.core == nil {
			continue
		}
		// Only slot-routed arrays carry programmed weights; the
		// unconfigured spares of the super-tile never bake.
		for _, st := range hw.core.blocks {
			for _, slot := range st.slotAC {
				if st.acs[slot].KernelFresh() {
					fresh++
				} else {
					stale++
				}
			}
		}
	}
	if fresh == 0 || stale != 0 {
		t.Fatalf("%d fresh, %d stale arrays after compile", fresh, stale)
	}
}

// TestRunsNeverMutateArrays pins the single degradation model: a run
// reads the programmed arrays and changes nothing on them. Every SNN,
// ANN and hybrid row of the walk matrix compiles on a chip whose
// reliability config injects device and line faults, ages with
// retention drift and protects with spare-line remapping, and — to
// cover the skipping walk as well — on a noiseless fault-free chip.
// After Run, RunBatch and RunReference the session must still be
// Pristine, every routed array's kernel still fresh, and the chip's
// health report unchanged. Only compile-time injection, AgeRetention,
// InjectStuckFaults and Scrub may change an array.
func TestRunsNeverMutateArrays(t *testing.T) {
	chips := map[string]func() *Chip{
		"faulty": func() *Chip {
			ch := NewChip(device.DefaultParams(), crossbar.Config{}, rng.New(61))
			ch.Rel = reliability.StudyConfig(0.01, reliability.ProtectSpareRemap)
			ch.Rel.Faults.DriftTauSteps = 200
			return ch
		},
		"noiseless": func() *Chip { return NewChip(device.DefaultParams(), crossbar.Config{}, nil) },
	}
	ctx := context.Background()
	for _, m := range walkMatrix(t) {
		for name, newChip := range chips {
			t.Run(m.name+"/"+name, func(t *testing.T) {
				ch := newChip()
				sess, err := ch.Compile(m.c, m.opts...)
				if err != nil {
					t.Fatal(err)
				}
				health := ch.Health()
				if ch.Rel != nil && health.DevicesFaulted == 0 {
					t.Fatal("faulty chip injected no device faults")
				}
				imgs := m.imgs[:min(3, len(m.imgs))]
				if _, err := sess.Run(ctx, imgs[0]); err != nil {
					t.Fatal(err)
				}
				if _, err := sess.RunBatch(ctx, imgs); err != nil {
					t.Fatal(err)
				}
				if _, err := sess.RunReference(ctx, imgs[0]); err != nil {
					t.Fatal(err)
				}
				if !sess.Pristine() {
					t.Fatal("runs changed an array's generation stamp")
				}
				sess.forEachSuperTile(func(st *SuperTile) {
					for slot := 0; slot < st.Slots(); slot++ {
						if !st.SlotCrossbar(slot).KernelFresh() {
							t.Fatalf("slot %d kernel stale after runs", slot)
						}
					}
				})
				if got := ch.Health(); got != health {
					t.Fatalf("runs changed the health report:\n%+v\n%+v", health, got)
				}
			})
		}
	}
}
