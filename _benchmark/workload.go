package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/arch"
	"repro/internal/convert"
	"repro/internal/core"
	"repro/internal/crossbar"
	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/image"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/reliability"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/train"
)

// workload is one set of inputs the benchmark runs. The trained model is
// part of the system under test and does not depend on the seed; the
// held-out images, the session/pool RNG seed and the open-loop schedule
// do.
type workload struct {
	name string
	// build, size: the network and its square single-channel input.
	build models.Builder
	size  int
	// mode, timesteps, split: how the converted model is compiled.
	mode      arch.Mode
	timesteps int
	split     int
	// noise is the crossbar read-noise sigma; spareRemap turns on the
	// spare-line reliability pipeline.
	noise      float64
	spareRemap bool
	// batch is the RunBatch size of the closed loop.
	batch int
	// parallelism bounds each session's worker goroutines (0: NumCPU).
	// One worker keeps a timed operation off the second vCPU, whose
	// neighbours would otherwise set its time as the straggler.
	parallelism int
	// serve drives the workload through serve.Server over a fleet.Pool
	// instead of Session.RunBatch.
	serve   bool
	rate    float64 // open-loop offered rate, req/s
	clients int     // closed-loop outstanding requests
	// quantize builds the model through the core facade, which
	// calibrates and quantizes it to the paper's 4-bit operating point;
	// without it the model is trained and converted at full precision,
	// as nebula-serve does.
	quantize bool
	// nTrain, epochs, lr size the training run (lr 0: the core
	// default); nTest is the seed-derived
	// held-out pool the inputs cycle over; the first nEval inputs give
	// accuracy, the digest and the simulated counts; the first nCheck
	// are compared bit for bit against a reference.
	nTrain, epochs       int
	lr                   float64
	nTest, nEval, nCheck int
}

// workloads is the benchmark's workload table; BENCHMARK.json lists the
// same names.
var workloads = []workload{
	{
		// Packed event path: noiseless chip, default Poisson encoder.
		name: "snn-mlp", build: models.NewMLP3, size: 28,
		mode: arch.ModeSNN, timesteps: 40,
		batch:    16,
		quantize: true,
		nTrain:   400, epochs: 4,
		nTest: 1024, nEval: 1024, nCheck: 32,
	},
	{
		// Spiking conv front, accumulator unit, ANN tail.
		name: "hybrid-lenet", build: models.NewLeNet5, size: 16,
		mode: arch.ModeHybrid, timesteps: 40, split: 2,
		batch:    8,
		quantize: true,
		nTrain:   300, epochs: 4, lr: 0.03,
		nTest: 256, nEval: 256, nCheck: 16,
	},
	{
		// The nebula-serve defaults. The open-loop rate is half the
		// measured open-loop saturation: on a 2-vCPU host the served rate
		// levels off near 2050 req/s and admissions start to be refused
		// from 1800 req/s (re-derive it with -rate on another host).
		name: "serve-mlp", build: models.NewMLP3, size: 16,
		mode: arch.ModeSNN, timesteps: 20,
		noise: 0.05, spareRemap: true,
		batch: 8, serve: true, rate: 1000, clients: 32,
		nTrain: 200, epochs: 4,
		nTest: 512, nEval: 256, nCheck: 64,
	},
}

// lookup returns the named workload.
func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// smoke shrinks a workload to test scale: the same layers, a fraction
// of the data.
func (w workload) smoke() workload {
	w.nTrain, w.epochs = 60, 1
	w.nTest, w.nEval, w.nCheck = 32, 16, 8
	w.timesteps = 8
	w.clients = 8
	if w.rate > 0 {
		// Low enough for an instrumented (-race) build to keep up.
		w.rate = 100
	}
	return w
}

// Fixed seeds of the system under test: the model's training data and
// initialisation, and the chip's programming stream (which is what makes
// replicas interchangeable and the image cache hit).
const (
	trainSeed uint64 = 77
	initSeed  uint64 = 5
	chipSeed  uint64 = 91
)

// fixture is a workload's trained model and seed-derived inputs.
type fixture struct {
	w      workload
	conv   *convert.Converted
	inputs []*tensor.Tensor
	labels []int
	// seed seeds every session and pool: sessions compiled here are
	// "seeded like the pool", so their outputs agree bit for bit.
	seed uint64
	// runSeed is the benchmark's --seed, the root of every input.
	runSeed uint64
}

// deriveSeed mixes the benchmark seed with a per-use salt.
func deriveSeed(seed, salt uint64) uint64 {
	return rng.New(seed ^ salt*0x9e3779b97f4a7c15).Uint64()
}

// buildModel trains and converts the workload's network: through the
// core facade, which also quantizes, or the way nebula-serve builds its
// full-precision model.
func buildModel(w workload) (*convert.Converted, error) {
	spec := dataset.MNISTLike
	spec.Size = w.size
	net := w.build(spec.Channels, spec.Size, spec.Classes, rng.New(initSeed))
	if !w.quantize {
		trainDS, testDS := dataset.TrainTest(spec, w.nTrain, 40, trainSeed)
		tcfg := train.DefaultConfig()
		tcfg.Epochs = w.epochs
		train.Run(net, trainDS, testDS, tcfg)
		conv, err := convert.Convert(net, trainDS, convert.DefaultConfig())
		if err != nil {
			return nil, fmt.Errorf("convert %s: %w", w.name, err)
		}
		return conv, nil
	}
	trainDS := dataset.Generate(spec, w.nTrain, trainSeed)
	valDS := dataset.Generate(spec, 20, trainSeed+1)
	cfg := core.DefaultPipelineConfig()
	cfg.Train.Epochs = w.epochs
	if w.lr > 0 {
		// A lower rate with earlier decay keeps the conv stacks stable.
		cfg.Train.LR = w.lr
		cfg.Train.LRDecayEvery = 3
	}
	pipe, err := core.New().Build(net, trainDS, valDS, cfg)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", w.name, err)
	}
	return pipe.Converted, nil
}

// newFixture builds the model and draws the held-out inputs from seed.
func newFixture(w workload, seed uint64, tr *tracer) (*fixture, error) {
	t0 := time.Now()
	conv, err := buildModel(w)
	if err != nil {
		return nil, err
	}
	tr.record("core.Build", 0, 0, t0, time.Now())
	spec := dataset.MNISTLike
	spec.Size = w.size
	test := dataset.Generate(spec, w.nTest, deriveSeed(seed, 1))
	f := &fixture{w: w, conv: conv, seed: deriveSeed(seed, 2), runSeed: seed}
	for i := 0; i < test.Len(); i++ {
		img, label := test.Sample(i)
		f.inputs = append(f.inputs, img)
		f.labels = append(f.labels, label)
	}
	return f, nil
}

// newChip builds a fresh, identically seeded chip per call. A noiseless
// chip gets no noise stream, which is what keeps the packed event path
// on.
func (f *fixture) newChip() *arch.Chip {
	var noise *rng.Rand
	if f.w.noise > 0 {
		noise = rng.New(chipSeed)
	}
	chip := arch.NewChip(device.DefaultParams(), crossbar.Config{ReadNoiseSigma: f.w.noise}, noise)
	if f.w.spareRemap {
		chip.Rel = &reliability.Config{
			Protection: reliability.ProtectSpareRemap,
			Policy:     reliability.DefaultPolicy(),
		}
	}
	return chip
}

// options is the workload's compile configuration in the given mode.
func (f *fixture) options(mode arch.Mode, extra ...arch.Option) []arch.Option {
	par := f.w.parallelism
	if par == 0 {
		par = runtime.NumCPU()
	}
	opts := []arch.Option{
		arch.WithMode(mode),
		arch.WithSeed(f.seed),
		arch.WithParallelism(par),
		arch.WithInputShape(1, f.w.size, f.w.size),
	}
	if mode != arch.ModeANN {
		opts = append(opts, arch.WithTimesteps(f.w.timesteps))
	}
	if mode == arch.ModeHybrid {
		opts = append(opts, arch.WithHybridSplit(f.w.split))
	}
	return append(opts, extra...)
}

// compile compiles the workload's session on a fresh chip.
func (f *fixture) compile(tr *tracer, extra ...arch.Option) (*arch.Session, error) {
	return f.compileMode(tr, f.w.mode, extra...)
}

// compileMode compiles the workload's model in the given mode.
func (f *fixture) compileMode(tr *tracer, mode arch.Mode, extra ...arch.Option) (*arch.Session, error) {
	t0 := time.Now()
	s, err := f.newChip().Compile(f.conv, f.options(mode, extra...)...)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", f.w.name, err)
	}
	tr.record("arch.Compile", 0, 0, t0, time.Now())
	return s, nil
}

// newPool builds a pool of NumCPU replicas through a fresh chip-image
// cache under dir: the first replica compiles cold, the rest load warm.
func (f *fixture) newPool(ctx context.Context, dir string, rec *obs.FleetRecorder, tr *tracer) (*fleet.Pool, error) {
	cdir, err := os.MkdirTemp(dir, "pool-cache-")
	if err != nil {
		return nil, err
	}
	cache, err := image.NewCache(cdir)
	if err != nil {
		return nil, err
	}
	inner := fleet.CachedFactory(f.newChip, f.conv, cache, f.options(f.w.mode)...)
	factory := func(ctx context.Context) (*arch.Session, error) {
		t0 := time.Now()
		s, err := inner(ctx)
		tr.record("arch.CompileCached", 0, 0, t0, time.Now())
		return s, err
	}
	pool, err := fleet.NewPool(ctx, fleet.Config{
		Replicas:    runtime.NumCPU(),
		Factory:     factory,
		Seed:        f.seed,
		Parallelism: runtime.NumCPU(),
		Rec:         rec,
	})
	if err != nil {
		return nil, fmt.Errorf("pool %s: %w", f.w.name, err)
	}
	return pool, nil
}

// env is everything set-up builds before the first timed operation.
type env struct {
	fx *fixture
	// sess is the timed session and ref the reference it is checked
	// against (batch workloads); golden is the standalone session seeded
	// like pool (serve workloads).
	sess, ref, golden *arch.Session
	pool              *fleet.Pool
}

// setup builds one workload environment: data, training, conversion
// and the compile or pool build.
func setup(ctx context.Context, w workload, seed uint64, dir string, tr *tracer) (*env, error) {
	fx, err := newFixture(w, seed, tr)
	if err != nil {
		return nil, err
	}
	e := &env{fx: fx}
	if w.serve {
		if e.pool, err = fx.newPool(ctx, dir, nil, tr); err != nil {
			return nil, err
		}
		e.golden, err = fx.compile(tr)
		return e, err
	}
	if e.sess, err = fx.compile(tr); err != nil {
		return nil, err
	}
	e.ref, err = fx.compile(tr)
	return e, err
}
