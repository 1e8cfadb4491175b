package arch

import (
	"context"
	"fmt"

	"repro/internal/convert"
	"repro/internal/crossbar"
	"repro/internal/device"
	"repro/internal/noc"
	"repro/internal/reliability"
	"repro/internal/rng"
	"repro/internal/snn"
	"repro/internal/tensor"
)

// Chip executes converted networks on simulated NEBULA hardware: one
// neural core per weighted stage (dedicated SNN or ANN cores, Fig. 6(b)),
// pooling in the NU datapath, digital accumulation at the routing units
// for the read-out, and a mesh NoC carrying inter-stage spikes.
//
// The chip consumes the output of convert.Convert, whose weights are
// normalized so that every IF threshold is 1 and activations live in
// [0, 1] — exactly the operating range of the 4-bit drivers and the
// saturating MTJ neurons.
type Chip struct {
	P    device.Params
	Cfg  crossbar.Config
	Mesh *noc.Mesh
	// WMax is the crossbar weight range per synapse pair; normalized
	// kernels are clipped to ±WMax at programming time.
	WMax float64
	// FaultRate injects stuck-at device faults into every programmed
	// super-tile (requires a noise generator). FaultMode selects the
	// stuck state. This is the legacy uniform-stuck-at path; the full
	// fault model lives behind Rel.
	FaultRate float64
	FaultMode crossbar.FaultMode
	// Rel, when non-nil, enables the reliability subsystem: the richer
	// fault profile is injected into every programmed core (spares
	// included), the BIST/repair pipeline runs per the protection level,
	// and runs return a *reliability.DegradedError when mitigation is
	// exhausted. Requires a noise generator for injection.
	Rel *reliability.Config

	noise  *rng.Rand
	health reliability.Report
	// restore marks a chip being rehydrated from a chip image: the build
	// path lays out geometry only (no programming writes, no fault
	// injection, no BIST) and the loader imports the recorded device
	// state afterwards.
	restore bool
	// noiseFP, when set, pins the noise-stream fingerprint recorded in
	// images: a rehydrated chip carries a sentinel stream whose state is
	// not the saved one, so re-saving must emit the original fingerprint
	// for the save→load→save fixed point (and the cache key) to hold.
	noiseFP    uint64
	noiseFPSet bool
}

// NewChip builds a chip with the given device and crossbar configuration.
// A nil noise generator disables stochastic non-idealities.
func NewChip(p device.Params, cfg crossbar.Config, noise *rng.Rand) *Chip {
	return &Chip{P: p, Cfg: cfg, Mesh: noc.New(noc.DefaultConfig()), WMax: 1.0, noise: noise}
}

// stageHW is the hardware realization of one converted stage.
type stageHW struct {
	kind string
	// name is the converted layer's name, the key counter snapshots and
	// trace events carry.
	name string
	// snnCore / annCore hold the crossbars for weighted stages (only one
	// is populated depending on the run mode).
	snnCore *SNNCore
	annCore *ANNCore
	// conv geometry (kind == "conv")
	kh, kw, stride, pad int
	inC, outC, groups   int
	// gather is the conv stage's receptive-field fetch table, derived
	// from the geometry and the compiled input shape by programPositions.
	gather *gatherTable
	// pool (kind == "pool")
	pool *snn.AvgPoolIF
	// output weights (kind == "output") — digitally accumulated at RUs.
	outW, outB *tensor.Tensor
	// spill holds the multi-core ADC-path realization of a dense stage
	// whose receptive field exceeds one super-tile (nil otherwise).
	spill *RUSpillCore
	// bias currents injected alongside the crossbar evaluation.
	bias *tensor.Tensor
	// kmProgram programs the kernel matrix once the number of
	// time-multiplexed positions is known (conv stages; invoked by
	// Compile via programPositions).
	kmProgram func(positions int) error
}

// RunResult reports a chip-level inference.
type RunResult struct {
	Output     *tensor.Tensor
	Prediction int
	// Cycles is the total pipeline cycle count across cores.
	Cycles int64
	// Spikes is the total hardware spike count (SNN mode).
	Spikes int64
	// NoCPackets counts inter-stage transfers.
	NoCPackets int64
	// ADCConversions counts spill-path partial-sum digitizations.
	ADCConversions int64
	// NoCHops counts the mesh hops traversed by inter-stage packets.
	NoCHops int64
	// EDRAMAccesses counts eDRAM transactions (pipeline stages 1 and 3).
	EDRAMAccesses int64
	// SilentStageSkips counts stage-timesteps the event-driven engine
	// skipped entirely because the stage's input spike plane was zero.
	// Skipped stages charge no cycles, packets or accesses — the
	// hardware semantics of an event-driven chip (PAPER.md §IV).
	SilentStageSkips int64
	// SpikesSkipped counts silent input slots not driven on the
	// event-driven path (plane length minus popcount per stage step).
	SpikesSkipped int64
	// PackedWords counts packed spike-plane words processed.
	PackedWords int64
	// RepeatReads counts crossbar reads served from the timestep-repeat
	// cache; the replayed read's stats are re-charged, so results and
	// crossbar accounting are identical to a cache-free event run.
	RepeatReads int64
	// Crossbar collects the run's crossbar activity on the session
	// engine's frozen-conductance path (wear-mode runs accumulate into
	// the arrays' own counters instead, as the deprecated entry points
	// always did).
	Crossbar crossbar.Stats
}

// buildSNN lowers a converted network onto hardware SNN cores.
func (ch *Chip) buildSNN(c *convert.Converted) ([]*stageHW, error) {
	var stages []*stageHW
	for _, st := range c.Stages {
		layer := c.SNN.Layers[st.SNNLayer]
		switch v := layer.(type) {
		case *snn.Conv:
			outC := v.W.Dim(0)
			kh, kw := v.W.Dim(2), v.W.Dim(3)
			gcIn := v.W.Dim(1)
			inC := gcIn * v.Groups
			rf := gcIn * kh * kw
			if !FitsInCore(rf, outC) {
				return nil, fmt.Errorf("arch: stage %s (Rf=%d, K=%d) does not fit one core; multi-core spill is modeled analytically in package energy", v.Name(), rf, outC)
			}
			// Kernel matrix: Rf×outC per Fig. 5. For grouped convolutions
			// the matrix is block-diagonal over groups; the simulator
			// keeps one matrix per group and routes each group's input
			// window to its block (the morphable switches isolate the
			// per-group column ranges).
			km := v.W.Reshape(outC, rf).Transpose()
			core := NewSNNCore(ch.P, ch.coreCfg(), 1.0, ch.split())
			// Positions allocated lazily at run time (depends on input size).
			s := &stageHW{kind: "conv", name: v.Name(), snnCore: core, kh: kh, kw: kw,
				stride: v.Stride, pad: v.Pad, inC: inC, outC: outC, groups: v.Groups}
			s.kmProgram = func(positions int) error { return ch.programSNN(core, km, positions) }
			s.bias = v.B
			stages = append(stages, s)
		case *snn.Dense:
			km := v.W.Transpose() // in×out
			rf, outC := km.Dim(0), km.Dim(1)
			if !FitsInCore(rf, outC) {
				// Multi-core spill: digitized partial sums reduced at a
				// routing unit (§IV-B3's Rf > 16M path).
				sp := NewRUSpillCore(ch.P, ch.coreCfg(), 1.0, ch.split())
				sp.ADCBits = 8
				if err := ch.programSpill(sp, km, 1); err != nil {
					return nil, err
				}
				for _, st := range sp.blocks {
					if err := ch.prepare(st); err != nil {
						return nil, err
					}
				}
				s := &stageHW{kind: "dense", name: v.Name(), spill: sp, outC: outC}
				s.bias = v.B
				stages = append(stages, s)
				continue
			}
			core := NewSNNCore(ch.P, ch.coreCfg(), 1.0, ch.split())
			if err := ch.programSNN(core, km, 1); err != nil {
				return nil, err
			}
			if err := ch.prepare(core.ST); err != nil {
				return nil, err
			}
			s := &stageHW{kind: "dense", name: v.Name(), snnCore: core, outC: outC}
			s.bias = v.B
			stages = append(stages, s)
		case *snn.AvgPoolIF:
			stages = append(stages, &stageHW{kind: "pool", name: v.Name(),
				pool: snn.NewAvgPoolIF(v.Name(), v.K, v.Stride, 1.0, snn.ResetToZero)})
		case *snn.Flatten:
			stages = append(stages, &stageHW{kind: "flatten", name: v.Name()})
		case *snn.Output:
			stages = append(stages, &stageHW{kind: "output", name: v.Name(), outW: v.W, outB: v.B})
		default:
			return nil, fmt.Errorf("arch: unsupported stage type %T", layer)
		}
	}
	return stages, nil
}

func (ch *Chip) split() *rng.Rand {
	if ch.noise == nil {
		return nil
	}
	return ch.noise.Split()
}

// injectFaults applies the chip's configured stuck-at fault rate to a
// freshly programmed super-tile (the legacy uniform model).
func (ch *Chip) injectFaults(st *SuperTile) {
	if ch.FaultRate > 0 && ch.noise != nil {
		st.InjectStuckFaults(ch.noise.Split(), ch.FaultRate, ch.FaultMode)
	}
}

// coreCfg derives the crossbar configuration for a new core: the chip's
// base config plus the reliability knobs (spare lines under
// sparing+remap, read disturb and drift from the fault profile).
func (ch *Chip) coreCfg() crossbar.Config {
	cfg := ch.Cfg
	if ch.Rel != nil {
		if ch.Rel.Protection >= reliability.ProtectSpareRemap {
			cfg.SpareRows = ch.Rel.Policy.SpareRows
			cfg.SpareCols = ch.Rel.Policy.SpareCols
		}
		cfg.ReadDisturbProb = ch.Rel.Faults.ReadDisturbProb
		cfg.DriftTauSteps = ch.Rel.Faults.DriftTauSteps
	}
	return cfg
}

// prepare post-processes a freshly programmed super-tile: under the
// reliability subsystem it injects the fault profile and runs the
// protection pipeline (possibly refusing with a DegradedError);
// otherwise it applies the legacy uniform fault rate. A restoring chip
// skips both — the imported state already carries the injected faults
// and every repair the original compile performed.
func (ch *Chip) prepare(st *SuperTile) error {
	if ch.restore {
		return nil
	}
	if ch.Rel != nil {
		return ch.protect(st)
	}
	ch.injectFaults(st)
	return nil
}

// programSNN routes a spiking core's kernel programming through the
// restore switch: a restoring chip configures geometry and neuron banks
// only, leaving the device state to the image loader.
func (ch *Chip) programSNN(core *SNNCore, km *tensor.Tensor, positions int) error {
	if ch.restore {
		return core.configure(km, ch.WMax, positions)
	}
	return core.Program(km, ch.WMax, positions)
}

// programANN is programSNN for continuous cores.
func (ch *Chip) programANN(core *ANNCore, km *tensor.Tensor) error {
	if ch.restore {
		return core.configure(km, ch.WMax)
	}
	return core.Program(km, ch.WMax)
}

// programSpill is programSNN for spill cores.
func (ch *Chip) programSpill(sp *RUSpillCore, km *tensor.Tensor, positions int) error {
	if ch.restore {
		return sp.configure(km, ch.WMax, positions)
	}
	return sp.Program(km, ch.WMax, positions)
}

// RunSNN executes T Poisson-encoded timesteps of one image through the
// hardware. Conv stages time-multiplex output positions over their core
// with per-position replica neurons; the membrane of every neuron lives
// in its device between timesteps.
//
// Deprecated: RunSNN re-compiles the whole pipeline per call. Use
// Compile with WithMode(ModeSNN) once, then Run/RunBatch per input; this
// shim is a Compile + one wear-mode Run with the caller's encoder.
func (ch *Chip) RunSNN(c *convert.Converted, img *tensor.Tensor, T int, enc *snn.PoissonEncoder) (*RunResult, error) {
	sess, err := ch.Compile(c,
		WithMode(ModeSNN),
		WithTimesteps(T),
		WithSharedEncoder(enc),
		WithInputShape(img.Shape()...),
		WithWear(true))
	if err != nil {
		return nil, err
	}
	//nebula:lint-ignore ctxflow deprecated shim has no ctx to thread; callers wanting deadlines use Compile+Run
	return sess.Run(context.Background(), img)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
