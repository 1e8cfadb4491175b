package arch

import (
	"fmt"

	"repro/internal/convert"
	"repro/internal/crossbar"
	"repro/internal/device"
	"repro/internal/reliability"
	"repro/internal/rng"
	"repro/internal/snn"
	"repro/internal/tensor"
)

// Chip executes converted networks on simulated NEBULA hardware: one
// neural core per weighted stage, spiking or continuous by the domain
// the stage runs in (dedicated SNN or ANN cores, Fig. 6(b)), lowered
// exactly once per compile; pooling in the NU datapath, digital
// accumulation at the routing units for the read-out, and a mesh NoC
// carrying inter-stage spikes (charged as hop counts; see
// Session.finish).
//
// The chip consumes the output of convert.Convert, whose weights are
// normalized so that every IF threshold is 1 and activations live in
// [0, 1] — exactly the operating range of the 4-bit drivers and the
// saturating MTJ neurons.
type Chip struct {
	P   device.Params
	Cfg crossbar.Config
	// WMax is the crossbar weight range per synapse pair; normalized
	// kernels are clipped to ±WMax at programming time.
	WMax float64
	// Rel, when non-nil, enables the reliability subsystem: the fault
	// profile is injected into every programmed core (spares included),
	// the BIST/repair pipeline runs per the protection level, and
	// compiles return a *reliability.DegradedError when mitigation is
	// exhausted. Requires a noise generator for injection. Compile-time
	// injection is one of the four events that change a session's
	// arrays; the others are Session.AgeRetention,
	// Session.InjectStuckFaults and Session.Scrub.
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
	return &Chip{P: p, Cfg: cfg, WMax: 1.0, noise: noise}
}

// stageHW is the hardware realization of one converted stage. The
// session's stages before its hybrid cut run spiking (stepStage), the
// rest continuous (annStage); one type serves both domains.
type stageHW struct {
	kind string
	// name is the converted layer's name, the key counter snapshots and
	// trace events carry.
	name string
	// core holds the crossbars of a weighted stage that fits one core.
	core *neuralCore
	// conv geometry (kind == "conv")
	kh, kw, stride, pad int
	inC, outC, groups   int
	// gather is the conv stage's receptive-field fetch table, derived
	// from the geometry and the compiled input shape (nil for a
	// continuous stage compiled without a shape: each run state derives
	// one for the size it sees).
	gather *gatherTable
	// pool geometry (kind == "pool")
	poolK, poolStride int
	// output weights (kind == "output") — digitally accumulated at RUs.
	outW, outB *tensor.Tensor
	// spill holds the multi-core ADC-path realization of a spiking dense
	// stage whose receptive field exceeds one super-tile (nil otherwise).
	spill *RUSpillCore
	// bias currents injected alongside the crossbar evaluation.
	bias *tensor.Tensor
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
	// SilentStageSkips counts stage-timesteps the engine skipped
	// entirely because the stage's input spike plane was zero.
	// Skipped stages charge no cycles, packets or accesses — the
	// hardware semantics of an event-driven chip (PAPER.md §IV).
	SilentStageSkips int64
	// SpikesSkipped counts silent input slots not driven (plane length
	// minus popcount per stage step).
	SpikesSkipped int64
	// PackedWords counts packed spike-plane words processed.
	PackedWords int64
	// RepeatReads counts crossbar reads served from the timestep-repeat
	// cache; the replayed read's stats are re-charged, so results and
	// crossbar accounting are identical to a cache-free run.
	RepeatReads int64
	// Crossbar collects the run's crossbar activity.
	Crossbar crossbar.Stats
}

// lower realizes the converted stages in pipeline order, each exactly
// once: stages before cut onto spiking cores, stages from cut on onto
// continuous ones. It carries the input's (h, w) through the walk, so
// the position-replica banks of spiking conv stages and the gather
// tables of every conv stage come from the same walk. Spiking conv
// stages need the shape; without one, continuous conv stages leave
// their gather table to each run state.
func (ch *Chip) lower(c *convert.Converted, cut int, shape []int) ([]*stageHW, error) {
	haveShape := len(shape) == 3
	var h, w int
	if haveShape {
		h, w = shape[1], shape[2]
	}
	stages := make([]*stageHW, 0, len(c.Stages))
	for i, st := range c.Stages {
		spiking := i < cut
		layer := c.SNN.Layers[st.SNNLayer]
		switch v := layer.(type) {
		case *snn.Conv:
			outC := v.W.Dim(0)
			kh, kw := v.W.Dim(2), v.W.Dim(3)
			gcIn := v.W.Dim(1)
			rf := gcIn * kh * kw
			if !FitsInCore(rf, outC) {
				return nil, fmt.Errorf("arch: stage %s (Rf=%d, K=%d) does not fit one core; multi-core spill is modeled analytically in package energy", v.Name(), rf, outC)
			}
			if spiking && !haveShape {
				return nil, fmt.Errorf("model has convolution stages; pass WithInputShape(c, h, w) so position replicas can be sized at compile time")
			}
			s := &stageHW{kind: "conv", name: v.Name(), kh: kh, kw: kw, stride: v.Stride, pad: v.Pad,
				inC: gcIn * v.Groups, outC: outC, groups: v.Groups, bias: v.B}
			if haveShape {
				gt, err := newGatherTable(gcIn, h, w, kh, kw, v.Stride, v.Pad)
				if err != nil {
					return nil, fmt.Errorf("stage %s: %w", v.Name(), err)
				}
				s.gather = gt
				h, w = gt.oh, gt.ow
			}
			// Kernel matrix: Rf×outC per Fig. 5. For grouped convolutions
			// the matrix is block-diagonal over groups; the simulator
			// keeps one matrix per group and routes each group's input
			// window to its block (the morphable switches isolate the
			// per-group column ranges). A spiking stage owns a replica
			// bank per (position, group) pair.
			positions := 1
			if spiking {
				positions = s.gather.npos() * v.Groups
			}
			var err error
			if s.core, err = ch.newCore(v.W.Reshape(outC, rf).Transpose(), positions); err != nil {
				return nil, err
			}
			stages = append(stages, s)
		case *snn.Dense:
			km := v.W.Transpose() // in×out
			rf, outC := km.Dim(0), km.Dim(1)
			s := &stageHW{kind: "dense", name: v.Name(), outC: outC, bias: v.B}
			var err error
			switch {
			case FitsInCore(rf, outC):
				s.core, err = ch.newCore(km, 1)
			case spiking:
				// Multi-core spill: digitized partial sums reduced at a
				// routing unit (§IV-B3's Rf > 16M path).
				s.spill, err = ch.newSpill(km)
			default:
				err = fmt.Errorf("arch: stage %s (Rf=%d, K=%d) does not fit one core; the RU spill path is spiking only", v.Name(), rf, outC)
			}
			if err != nil {
				return nil, err
			}
			stages = append(stages, s)
		case *snn.AvgPoolIF:
			if haveShape {
				h = tensor.ConvOutSize(h, v.K, v.Stride, 0)
				w = tensor.ConvOutSize(w, v.K, v.Stride, 0)
			}
			stages = append(stages, &stageHW{kind: "pool", name: v.Name(), poolK: v.K, poolStride: v.Stride})
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

// coreCfg derives the crossbar configuration for a new core: the chip's
// base config plus the reliability knobs (spare lines under
// sparing+remap, drift from the fault profile).
func (ch *Chip) coreCfg() crossbar.Config {
	cfg := ch.Cfg
	if ch.Rel != nil {
		if ch.Rel.Protection >= reliability.ProtectSpareRemap {
			cfg.SpareRows = ch.Rel.Policy.SpareRows
			cfg.SpareCols = ch.Rel.Policy.SpareCols
		}
		cfg.DriftTauSteps = ch.Rel.Faults.DriftTauSteps
	}
	return cfg
}

// prepare post-processes a freshly programmed super-tile: under the
// reliability subsystem it injects the fault profile and runs the
// protection pipeline (possibly refusing with a DegradedError). A
// restoring chip skips it — the imported state already carries the
// injected faults and every repair the original compile performed.
func (ch *Chip) prepare(st *SuperTile) error {
	if ch.restore || ch.Rel == nil {
		return nil
	}
	return ch.protect(st)
}

// newCore builds, programs and prepares the neural core of kernel
// matrix km with positions replica banks. Program is configure followed
// by the device writes, so a restoring chip stops after configure —
// geometry and neuron banks only — and leaves the device state to the
// image loader.
func (ch *Chip) newCore(km *tensor.Tensor, positions int) (*neuralCore, error) {
	core := newNeuralCore(ch.P, ch.coreCfg(), 1.0, ch.split())
	var err error
	if ch.restore {
		err = core.configure(km, ch.WMax, positions)
	} else {
		err = core.Program(km, ch.WMax, positions)
	}
	if err != nil {
		return nil, err
	}
	return core, ch.prepare(core.ST)
}

// newSpill is newCore for a spill core: every block is programmed, then
// each is prepared in block order.
func (ch *Chip) newSpill(km *tensor.Tensor) (*RUSpillCore, error) {
	sp := NewRUSpillCore(ch.P, ch.coreCfg(), 1.0, ch.split())
	sp.ADCBits = 8
	var err error
	if ch.restore {
		err = sp.configure(km, ch.WMax, 1)
	} else {
		err = sp.Program(km, ch.WMax, 1)
	}
	if err != nil {
		return nil, err
	}
	for _, st := range sp.blocks {
		if err := ch.prepare(st); err != nil {
			return nil, err
		}
	}
	return sp, nil
}
