package arch

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/convert"
	"repro/internal/image"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/reliability"
	"repro/internal/rng"
	"repro/internal/snn"
)

// This file is the program-once / run-many inference API. Compile performs
// everything the paper amortizes across requests — mapping, crossbar
// programming, fault injection and the BIST/protect pipeline — exactly
// once, and returns a Session whose Run/RunBatch stream inputs through the
// programmed hardware. The compiled state (super-tiles, geometry, weights)
// is immutable during runs; everything an inference mutates (neuron
// membranes, RU registers, pooling IF state, read-out accumulators,
// statistics) lives in per-run state drawn from a session arena, so
// batches execute concurrently and still reproduce the sequential results
// bit for bit.

// Mode selects the operating modality of a compiled session — the
// morphable multi-modality of §IV-B4 exercised on identical crossbar
// contents.
type Mode int

const (
	// ModeANN runs a single continuous-activation pass.
	ModeANN Mode = iota
	// ModeSNN runs T encoded timesteps through spiking cores.
	ModeSNN
	// ModeHybrid runs a spiking front for T timesteps, accumulates the
	// boundary spikes digitally, and finishes with one ANN pass.
	ModeHybrid
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeANN:
		return "ann"
	case ModeSNN:
		return "snn"
	case ModeHybrid:
		return "hybrid"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// CompileError reports a failed session compilation. It wraps the
// underlying cause — notably *reliability.DegradedError when the
// BIST/protect pipeline refuses a core — so errors.Is / errors.As reach
// through it.
type CompileError struct {
	// Mode is the requested operating mode.
	Mode Mode
	// Model names the converted network being compiled.
	Model string
	// Err is the underlying cause.
	Err error
}

// Error implements error.
func (e *CompileError) Error() string {
	return fmt.Sprintf("arch: compile %s session for %q: %v", e.Mode, e.Model, e.Err)
}

// Unwrap exposes the cause to errors.Is / errors.As.
func (e *CompileError) Unwrap() error { return e.Err }

// EncoderFactory builds a per-run input encoder from that run's private
// RNG stream. It must not capture shared mutable state: the engine calls
// it once per input, possibly from concurrent workers.
type EncoderFactory func(r *rng.Rand) snn.Encoder

// CompileConfig is the serializable half of a Compile call's
// configuration: every option that shapes the compiled chip state or the
// run semantics and can round-trip through a chip image. The
// process-local options — encoder factories, shared encoders, observers,
// image caches — stay functional-only and never enter an image.
//
// Construct one with zero values plus field assignment, or recover one
// from a compiled session with Session.Config; WithConfig turns it back
// into an option and Options reconstructs the full option list.
type CompileConfig struct {
	// Mode is the operating modality.
	Mode Mode
	// Timesteps is the spiking evidence window. Required (≥ 1) for
	// ModeSNN and ModeHybrid; ignored by ModeANN.
	Timesteps int
	// HybridSplit is how many trailing weighted layers (including the
	// read-out) run in the ANN domain. Required for ModeHybrid.
	HybridSplit int
	// Parallelism bounds the number of RunBatch worker goroutines
	// (≤ 0: runtime.NumCPU()). Results are bitwise independent of it.
	Parallelism int
	// Seed seeds the session's RNG tree; SeedSet records whether it was
	// given explicitly. Compile resolves an unset seed to the fixed
	// default, so after compilation Seed is always the effective seed.
	Seed    uint64
	SeedSet bool
	// InputShape is the declared input tensor shape (c, h, w), when
	// given. Spiking convolution stages require it.
	InputShape []int
}

// Options reconstructs a functional-option list that reproduces this
// configuration, so a stored CompileConfig can drive a fresh Compile.
func (c CompileConfig) Options() []Option {
	opts := []Option{
		WithMode(c.Mode),
		WithTimesteps(c.Timesteps),
		WithHybridSplit(c.HybridSplit),
		WithParallelism(c.Parallelism),
	}
	if len(c.InputShape) > 0 {
		opts = append(opts, WithInputShape(c.InputShape...))
	}
	if c.SeedSet {
		opts = append(opts, WithSeed(c.Seed))
	}
	return opts
}

// Hash returns a stable content hash of the configuration: the SHA-256
// hex digest of a fixed-order little-endian encoding of every field.
// Two configurations hash equal exactly when they compile identically
// over the same model and chip.
func (c CompileConfig) Hash() string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		_, _ = h.Write(b[:]) // sha256 writes never fail
	}
	putBool := func(v bool) {
		if v {
			put(1)
		} else {
			put(0)
		}
	}
	put(uint64(int64(c.Mode)))
	put(uint64(int64(c.Timesteps)))
	put(uint64(int64(c.HybridSplit)))
	put(uint64(int64(c.Parallelism)))
	put(c.Seed)
	putBool(c.SeedSet)
	put(uint64(len(c.InputShape)))
	for _, d := range c.InputShape {
		put(uint64(int64(d)))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sessionConfig collects the full option state of one Compile call: the
// serializable CompileConfig plus the process-local halves that cannot
// round-trip through an image.
type sessionConfig struct {
	CompileConfig
	encFactory EncoderFactory
	// encCustom records a caller-supplied factory; such sessions are
	// not imageable (a closure cannot be serialized), so the compile
	// cache bypasses them.
	encCustom bool
	sharedEnc snn.Encoder
	rec       *obs.Recorder
	// cacheDir routes Compile through a content-addressed image cache
	// when non-empty; cacheMetrics, when non-nil, observes that cache.
	cacheDir     string
	cacheMetrics image.Metrics
}

// Option configures Compile.
type Option func(*sessionConfig)

// WithConfig applies every serializable option at once — the inverse of
// Session.Config. Options applied after it still override individual
// fields.
func WithConfig(c CompileConfig) Option {
	return func(sc *sessionConfig) {
		c.InputShape = append([]int(nil), c.InputShape...)
		sc.CompileConfig = c
	}
}

// WithMode selects the operating modality (default ModeANN).
func WithMode(m Mode) Option { return func(c *sessionConfig) { c.Mode = m } }

// WithTimesteps sets the spiking evidence window. Required (≥ 1) for
// ModeSNN and ModeHybrid; ignored by ModeANN.
func WithTimesteps(t int) Option { return func(c *sessionConfig) { c.Timesteps = t } }

// WithHybridSplit sets how many trailing weighted layers (including the
// read-out) run in the ANN domain, mirroring hybrid.Split. Required for
// ModeHybrid.
func WithHybridSplit(nonSpiking int) Option {
	return func(c *sessionConfig) { c.HybridSplit = nonSpiking }
}

// WithParallelism bounds the number of worker goroutines RunBatch uses
// (n ≤ 0 or omitted: runtime.NumCPU()). Results are bitwise independent
// of the setting; it only trades wall-clock for cores.
func WithParallelism(n int) Option { return func(c *sessionConfig) { c.Parallelism = n } }

// WithEncoder installs a factory building each run's input encoder from
// that run's private RNG stream (default: a PoissonEncoder at the model's
// conversion gain). Spiking modes only. Sessions with a custom factory
// cannot be imaged: the closure has no serializable form.
func WithEncoder(f EncoderFactory) Option {
	return func(c *sessionConfig) { c.encFactory = f; c.encCustom = true }
}

// WithSharedEncoder installs one caller-owned encoder used by every run.
// A shared encoder serializes the session (parallelism 1): its internal
// RNG state would otherwise be raced and reorder draws.
func WithSharedEncoder(e snn.Encoder) Option { return func(c *sessionConfig) { c.sharedEnc = e } }

// WithInputShape declares the input tensor shape (c, h, w). Spiking
// convolution stages need it at compile time to size their
// position-replica neuron banks; dense-only models may omit it.
func WithInputShape(dims ...int) Option {
	return func(c *sessionConfig) { c.InputShape = append([]int(nil), dims...) }
}

// WithSeed seeds the session's RNG tree, from which every run reserves
// its private encoder and read-noise streams. Two sessions compiled with
// the same seed over the same chip produce identical run streams.
func WithSeed(seed uint64) Option {
	return func(c *sessionConfig) { c.Seed = seed; c.SeedSet = true }
}

// WithImageCache routes Compile through the content-addressed chip-image
// cache rooted at dir: a hit rehydrates the session from the stored
// image (skipping programming, fault injection and BIST), a miss
// compiles normally and installs the image for the next compile. See
// CompileCached for the cache-object form and the bypass rules.
func WithImageCache(dir string) Option { return func(c *sessionConfig) { c.cacheDir = dir } }

// WithImageCacheMetrics attaches a hit/miss/store/quarantine sink (e.g.
// an *obs.CacheRecorder) to the cache WithImageCache creates. Ignored
// without WithImageCache.
func WithImageCacheMetrics(m image.Metrics) Option {
	return func(c *sessionConfig) { c.cacheMetrics = m }
}

// WithObserver attaches a metrics recorder: each run's activity is
// tallied per stage into a private shard and merged into rec when the
// run (or its whole batch) succeeds. A nil recorder — the default —
// disables observation entirely; the engine then takes no accounting
// branches, touches no atomics and allocates no shards, so disabled
// sessions run at the unobserved speed. One recorder may observe several
// sessions compiled from the same model in the same mode (its Bind
// rejects mismatched schemas).
func WithObserver(rec *obs.Recorder) Option { return func(c *sessionConfig) { c.rec = rec } }

// defaultSessionSeed seeds sessions that set no WithSeed; a fixed
// constant keeps the default fully reproducible run to run.
const defaultSessionSeed uint64 = 0x9e3779b97f4a7c15

// Session is a compiled inference pipeline: programmed (and protected)
// crossbar hardware plus the run configuration. Its one stage list holds
// a spiking front and a continuous tail split at the hybrid cut, so a
// hybrid session programs exactly the cores it routes. The compiled
// state is read-only during runs — no run mutates an array — so Run and
// RunBatch are safe for concurrent use unless the session was compiled
// WithSharedEncoder. The arrays change only through four explicit
// events: compile-time fault injection and protection (Chip.Rel),
// AgeRetention, InjectStuckFaults and Scrub.
type Session struct {
	chip  *Chip
	cfg   sessionConfig
	model *convert.Converted

	// stages is the compiled pipeline in order, each converted stage
	// lowered once; stages[:cut] run spiking and stages[cut:] continuous
	// (ModeSNN: cut = len(stages); ModeANN: cut = 0).
	stages []*stageHW
	cut    int
	// lambda is the activation scale at the hybrid boundary.
	lambda float64

	// rec is the attached metrics recorder (nil: observation disabled).
	// obsLayout is the counter schema built at compile time; obsBase is
	// the bucket offset of stage 0 within it (1 after the input bucket of
	// spiking modes); traceOn caches rec.TraceEnabled(); engineHops is
	// the mesh distance the engine charges per inter-stage packet.
	rec        *obs.Recorder
	obsLayout  *obs.Layout
	obsBase    int
	traceOn    bool
	engineHops int64

	// mu guards the stream reservation; streams is the session RNG parent
	// from which each run draws its two private streams in input order.
	mu      sync.Mutex
	streams *rng.Rand
	// maintMu serializes the maintenance hooks (AgeRetention,
	// InjectStuckFaults, Scrub), which mutate the programmed arrays and
	// the chip health report.
	maintMu sync.Mutex
	// genStamp is the per-array generation baseline recorded when the
	// session was last known good (Compile, Scrub); see Pristine.
	genStamp []uint64
	// arena recycles per-run scratch state across runs and workers.
	arena runArena
}

// Compile lowers a converted network onto the chip for the requested
// mode: each stage is lowered once, in pipeline order, onto a core of
// the domain it runs in — spiking before the hybrid cut, continuous
// from it on. Cores are created and programmed, conv position replicas
// are allocated, and — when the reliability subsystem is enabled — the
// fault profile is injected and the BIST/protect pipeline runs, exactly
// once. All errors are returned as *CompileError wrapping the cause
// (including *reliability.DegradedError when protection is exhausted).
func (ch *Chip) Compile(model *convert.Converted, opts ...Option) (*Session, error) {
	cfg := sessionConfig{}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.cacheDir != "" {
		cache, err := image.NewCache(cfg.cacheDir)
		if err != nil {
			return nil, &CompileError{Mode: cfg.Mode, Model: model.SNN.Name(), Err: err}
		}
		if cfg.cacheMetrics != nil {
			cache.SetMetrics(cfg.cacheMetrics)
		}
		return ch.compileCached(model, cache, cfg)
	}
	return ch.compile(model, cfg)
}

// compile is the uncached compilation path shared by Compile, the image
// cache and the image loader: it places the hybrid cut (the end of the
// pipeline for ModeSNN, 0 for ModeANN) and lowers the model once.
func (ch *Chip) compile(model *convert.Converted, cfg sessionConfig) (*Session, error) {
	fail := func(err error) (*Session, error) {
		return nil, &CompileError{Mode: cfg.Mode, Model: model.SNN.Name(), Err: err}
	}
	switch cfg.Mode {
	case ModeANN, ModeSNN, ModeHybrid:
	default:
		return fail(fmt.Errorf("unknown mode %d", int(cfg.Mode)))
	}
	if cfg.Mode != ModeANN && cfg.Timesteps < 1 {
		return fail(fmt.Errorf("%s mode needs WithTimesteps ≥ 1, got %d", cfg.Mode, cfg.Timesteps))
	}
	if cfg.encFactory == nil {
		gain := model.Cfg.Gain
		if gain <= 0 {
			gain = 1.0
		}
		cfg.encFactory = func(r *rng.Rand) snn.Encoder { return snn.NewPoissonEncoder(gain, r) }
	}

	// Snapshot the cumulative health report so the observer can attribute
	// exactly this compilation's BIST/repair work.
	healthBefore := ch.health

	s := &Session{chip: ch, cfg: cfg, model: model, cut: len(model.Stages)}
	var err error
	switch cfg.Mode {
	case ModeANN:
		s.cut = 0
	case ModeHybrid:
		s.cut, s.lambda, err = hybridCut(model, cfg.HybridSplit)
	}
	if err == nil {
		s.stages, err = ch.lower(model, s.cut, cfg.InputShape)
	}
	if err != nil {
		if cfg.rec != nil {
			// A refused compile still did real BIST/repair work — and a
			// degradation refusal is exactly the event an operator
			// watches for — so the reliability delta is recorded even
			// though no session exists to run.
			cfg.rec.RecordProgram(failedCompileRecord(ch.health.Delta(healthBefore), err))
		}
		return fail(err)
	}

	if ch.restore {
		// A restore build is a geometry-only skeleton: the loader imports
		// the programmed state next and then finishes the session itself.
		return s, nil
	}
	if err := s.finish(healthBefore); err != nil {
		return fail(err)
	}
	return s, nil
}

// finish seals a built session: the read kernels are baked, the RNG
// tree seeded, the scratch arena and mesh accounting wired, the
// observer attached and the known-good generation baseline stamped. The
// stage hardware must hold its final programmed (or imported) state.
func (s *Session) finish(healthBefore reliability.Report) error {
	// Freeze the programmed conductance planes into read kernels.
	s.bakeKernels()

	if !s.cfg.SeedSet {
		s.cfg.Seed = defaultSessionSeed
	}
	s.streams = rng.New(s.cfg.Seed)
	s.arena.limit = max(s.Parallelism(0), runtime.NumCPU())
	// Every inter-stage packet crosses the fixed engine placement: one
	// adjacent pair of nodes on the default mesh.
	s.engineHops = int64(noc.New(noc.DefaultConfig()).Hops(noc.Node{X: 0, Y: 0}, noc.Node{X: 1, Y: 0}))
	if s.cfg.rec != nil {
		if err := s.attachObserver(s.cfg.rec, healthBefore); err != nil {
			return err
		}
	}
	// The arrays are final; record the known-good generation baseline
	// that Pristine checks against.
	s.stampGenerations()
	return nil
}

// bakeKernels freezes every programmed super-tile's conductance planes
// into flat read kernels (see crossbar.BakeKernel). Compile is the one
// point where the arrays are final — programmed, BIST-repaired and
// protected — and no run is in flight, so baking here is race-free.
// Spiking stages read binary spike planes and bake the lane plane;
// continuous cores read graded planes only and bake the graded kernel.
func (s *Session) bakeKernels() {
	for i, hw := range s.stages {
		switch {
		case hw.core != nil && i < s.cut:
			hw.core.ST.Bake()
		case hw.core != nil:
			hw.core.ST.BakeGraded()
		case hw.spill != nil:
			for _, st := range hw.spill.blocks {
				st.Bake()
			}
		}
	}
}

// Mode returns the session's operating mode.
func (s *Session) Mode() Mode { return s.cfg.Mode }

// Timesteps returns the spiking evidence window (0 for ModeANN).
func (s *Session) Timesteps() int {
	if s.cfg.Mode == ModeANN {
		return 0
	}
	return s.cfg.Timesteps
}

// Seed returns the effective session RNG seed: the explicit WithSeed
// value, or the fixed default when none was given.
func (s *Session) Seed() uint64 { return s.cfg.Seed }

// HybridSplit returns the configured number of trailing weighted layers
// running in the ANN domain (0 outside ModeHybrid).
func (s *Session) HybridSplit() int {
	if s.cfg.Mode != ModeHybrid {
		return 0
	}
	return s.cfg.HybridSplit
}

// ParallelismLimit returns the configured worker bound as given
// (≤ 0: resolve at run time to the core count); see Parallelism for the
// effective per-batch value.
func (s *Session) ParallelismLimit() int { return s.cfg.Parallelism }

// EncoderKind names the session's input-encoder arrangement: "poisson"
// for the default per-run factory, "custom" for a WithEncoder factory,
// "shared" for a WithSharedEncoder instance.
func (s *Session) EncoderKind() string {
	switch {
	case s.cfg.sharedEnc != nil:
		return "shared"
	case s.cfg.encCustom:
		return "custom"
	}
	return "poisson"
}

// Config returns the session's serializable compile configuration —
// everything needed to rebuild an equivalent session over the same
// model and chip (feed it to WithConfig). The returned value shares no
// memory with the session.
func (s *Session) Config() CompileConfig {
	c := s.cfg.CompileConfig
	c.InputShape = append([]int(nil), c.InputShape...)
	return c
}

// Parallelism returns the worker bound RunBatch will use for n inputs.
func (s *Session) Parallelism(n int) int {
	if s.cfg.sharedEnc != nil {
		return 1
	}
	p := s.cfg.Parallelism
	if p <= 0 {
		p = runtime.NumCPU()
	}
	if n > 0 && p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return p
}

// hybridCut locates the stage index of the first ANN-domain weighted
// stage and the activation scale λ of the last spiking stage before it.
func hybridCut(model *convert.Converted, nonSpiking int) (splitStage int, lambda float64, err error) {
	var weighted []int
	for i, st := range model.Stages {
		if st.Weighted {
			weighted = append(weighted, i)
		}
	}
	if nonSpiking < 1 || nonSpiking >= len(weighted) {
		return 0, 0, fmt.Errorf("hybrid split must be in [1, %d), got %d (set WithHybridSplit)", len(weighted), nonSpiking)
	}
	splitStage = weighted[len(weighted)-nonSpiking]
	lambda = 1.0
	for _, st := range model.Stages[:splitStage] {
		if st.Kind != "flatten" {
			lambda = st.Lambda
		}
	}
	return splitStage, lambda, nil
}
