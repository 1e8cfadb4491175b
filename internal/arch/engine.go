package arch

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/crossbar"
	"repro/internal/device"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/snn"
	"repro/internal/spikeplane"
	"repro/internal/tensor"
)

// This file is the session execution engine: the unified stage stepper
// shared by every mode, the per-run scratch arena, and the RunBatch
// worker pool. One implementation serves both execution regimes — the
// wear path (sequential, mutating crossbar reads, retention ticking,
// mesh traffic: the semantics of the deprecated entry points) and the
// frozen-conductance path (wear-free crossbar reads against programmed
// state, safe for any number of concurrent workers).

// runStreams are the two private RNG streams reserved for one input:
// the encoder stream and the crossbar read-noise stream. Reservation
// happens in input order under the session mutex, which is what makes
// batched results bitwise identical to sequential runs at any
// parallelism.
type runStreams struct {
	enc, noise *rng.Rand
}

// reserveStreams draws n stream pairs from the session parent in input
// order.
func (s *Session) reserveStreams(n int) []runStreams {
	out := make([]runStreams, n)
	s.mu.Lock()
	for i := range out {
		out[i].enc = s.streams.Split()
		out[i].noise = s.streams.Split()
	}
	s.mu.Unlock()
	return out
}

// runState is the per-run mutable half of a compiled session: one entry
// per spiking stage and per continuous stage, plus the hybrid
// accumulator. Instances are recycled through the session arena; reset
// returns every component to the post-programming rest state so each
// run is an independent inference, while keeping every buffer — a warm
// run allocates nothing per timestep or position (DESIGN.md §15).
type runState struct {
	stages []*stageRun
	ann    []*annRun
	au     *AccumulatorUnit
	// auOut receives the accumulator's read-out at the hybrid boundary.
	auOut *tensor.Tensor
	// encPlane is the packed spike plane of the encoder's output, the
	// head of the event-driven plane chain threaded through the stages.
	encPlane spikeplane.Plane
	// encT is the recycled encoder output buffer (IntoEncoder path).
	encT *tensor.Tensor
}

// stageRun holds one stage's per-run state. Exactly one group of the
// semantic fields is populated, matching the stage kind; the scratch
// fields below them are reused across the stage's timesteps so the
// steady-state hot loop allocates nothing per step.
type stageRun struct {
	// neurons is the position-replica MTJ bank of an in-core stage.
	neurons []*device.SpikingNeuron
	// membranes are the RU registers of a spill stage.
	membranes []float64
	// poolIF is the IF bank following NU average pooling; poolCur
	// receives the pooled current and poolOut the emitted spikes.
	poolIF           *snn.IFState
	poolCur, poolOut *tensor.Tensor
	// outAcc accumulates read-out increments across timesteps; outInc
	// is the per-step increment.
	outAcc *tensor.Tensor
	outInc []float64

	// sums receives the stage's crossbar column sums (frozen path only;
	// the wear path keeps its allocating reads). fire receives the spike
	// vector.
	sums, fire []float64
	// act gathers the indices of the non-zero input entries — the spike
	// list handed down to the crossbar kernels.
	act []int
	// sc holds the super-tile evaluation scratch (window, partials,
	// per-height active lists).
	sc EvalScratch
	// total accumulates a spill stage's digitized block partials.
	total []float64
	// colBuf is a conv stage's receptive-field window; convOut is its
	// output plane.
	colBuf  []float64
	convOut *tensor.Tensor
	// view is the cached tensor a dense stage emits (over fire) or a
	// flatten stage emits (over its input's data).
	view *tensor.Tensor

	// outPlane is the stage's packed output spike plane (event path).
	outPlane spikeplane.Plane
	// winPlane is the packed scratch for conv receptive-field windows
	// and spill-block views.
	winPlane spikeplane.Plane

	// Timestep-repeat cache of a dense in-core stage (event path).
	// The cached column sums are a pure function of (input values,
	// conductance generation), so the cache stays valid across runs
	// recycled through the arena; lastIn is only kept for graded
	// (non-binary) planes, whose bit pattern underdetermines the
	// values. lastCross is the cached read's crossbar-stats delta,
	// replayed on a hit so accounting is identical either way.
	lastPlane spikeplane.Plane
	lastIn    []float64
	lastSums  []float64
	lastCross crossbar.Stats
	lastGen   uint64
	haveLast  bool
}

// annRun holds one continuous stage's per-run buffers, sized on first
// use and reused by every later run of the recycled state.
type annRun struct {
	// gather is the table for an input size the compile did not fix.
	gather *gatherTable
	// col is a conv window; row receives one core read; sc is the
	// core's evaluation scratch.
	col, row []float64
	sc       EvalScratch
	// out is the stage's output tensor (a view over row for dense
	// stages, over the input's data for flatten).
	out *tensor.Tensor
}

// newRunState allocates scratch state shaped for the compiled pipeline.
func (s *Session) newRunState() *runState {
	st := &runState{stages: make([]*stageRun, len(s.snnStages)), ann: make([]*annRun, len(s.annStages))}
	for i, hw := range s.snnStages {
		sr := &stageRun{}
		switch {
		case hw.snnCore != nil:
			sr.neurons = neuronSlab(hw.snnCore.ST.P, len(hw.snnCore.neurons))
			sr.sums = make([]float64, hw.snnCore.ST.cols)
			sr.fire = make([]float64, hw.snnCore.ST.cols)
			sr.view = tensor.FromSlice(sr.fire, len(sr.fire))
			if gt := hw.gather; gt != nil {
				sr.colBuf = make([]float64, gt.rfg)
				sr.convOut = tensor.New(hw.outC, gt.oh, gt.ow)
			}
		case hw.spill != nil:
			sr.membranes = make([]float64, len(hw.spill.membranes))
			sr.sums = make([]float64, hw.spill.kernels)
			sr.total = make([]float64, hw.spill.kernels)
			sr.fire = make([]float64, hw.spill.kernels)
			sr.view = tensor.FromSlice(sr.fire, len(sr.fire))
		case hw.kind == "pool":
			sr.poolIF = snn.NewIFState(1.0, snn.ResetToZero)
		case hw.kind == "output":
			sr.outAcc = tensor.New(hw.outW.Dim(0))
			sr.outInc = make([]float64, hw.outW.Dim(0))
		}
		st.stages[i] = sr
	}
	for j := range st.ann {
		st.ann[j] = &annRun{}
	}
	if s.cfg.Mode == ModeHybrid {
		st.au = NewAccumulatorUnit(s.lambda)
	}
	return st
}

// reset returns the scratch state to rest.
func (st *runState) reset() {
	for _, sr := range st.stages {
		for _, n := range sr.neurons {
			n.Reset()
		}
		clear(sr.membranes)
		if sr.poolIF != nil {
			sr.poolIF.Reset()
		}
		if sr.outAcc != nil {
			clear(sr.outAcc.Data())
		}
	}
	if st.au != nil {
		st.au.Reset()
	}
}

// execEnv parameterizes one run's execution regime.
type execEnv struct {
	ch   *Chip
	wear bool
	// noise is the run's private read-noise stream (nil when the chip has
	// no noise generator or in wear mode, where arrays draw from their
	// own streams).
	noise *rng.Rand
	// cross collects crossbar activity on the frozen-conductance path
	// (nil in wear mode, where the arrays' shared counters accumulate).
	cross *crossbar.Stats
	// shard is the run's private counter shard (nil: observation
	// disabled, the engine takes no accounting branches).
	shard *obs.RunRecord
	// hops is the mesh distance charged per inter-stage packet.
	hops int64
	// event selects the bit-packed event-driven stepping path: spike
	// planes thread between stages, silent stages and windows skip
	// their reads, and dense stages consult the timestep-repeat cache.
	// Only enabled off the wear path with a nil read-noise stream, so
	// skipping reads cannot shift an RNG stream (DESIGN.md §15).
	event bool
}

// stageMark snapshots the run counters before one stage executes, so
// the stage's contribution can be attributed as a delta afterwards.
type stageMark struct {
	cycles, spikes, packets, hops, adc, edram int64
	skips, skipped, packed, repeats           int64
	cross                                     crossbar.Stats
}

// mark snapshots the current counters.
func (env *execEnv) mark(res *RunResult) stageMark {
	m := stageMark{cycles: res.Cycles, spikes: res.Spikes, packets: res.NoCPackets,
		hops: res.NoCHops, adc: res.ADCConversions, edram: res.EDRAMAccesses,
		skips: res.SilentStageSkips, skipped: res.SpikesSkipped,
		packed: res.PackedWords, repeats: res.RepeatReads}
	if env.cross != nil {
		m.cross = *env.cross
	}
	return m
}

// observe folds the delta since m into one shard bucket and returns the
// stage's spike count for tracing. Crossbar-level counters (MAC reads,
// driven rows, output current) are only attributable on the
// frozen-conductance path; wear-mode runs accumulate them into the
// arrays' own counters, as the deprecated entry points always did.
func (env *execEnv) observe(m stageMark, res *RunResult, c *obs.Counters) int64 {
	dSpikes := res.Spikes - m.spikes
	c.SpikesEmitted += dSpikes
	c.Cycles += res.Cycles - m.cycles
	c.NoCPackets += res.NoCPackets - m.packets
	c.NoCHops += res.NoCHops - m.hops
	c.ADCConversions += res.ADCConversions - m.adc
	c.EDRAMAccesses += res.EDRAMAccesses - m.edram
	c.SilentStageSkips += res.SilentStageSkips - m.skips
	c.SpikesSkipped += res.SpikesSkipped - m.skipped
	c.PackedWords += res.PackedWords - m.packed
	c.RepeatReads += res.RepeatReads - m.repeats
	if env.cross != nil {
		d := env.cross.Diff(m.cross)
		c.MACReads += d.MACs
		c.ActiveRowSum += d.ActiveRowSum
		c.OutputCurrentUA += d.OutputCurrentUA
	}
	return dSpikes
}

// evaluate drives a super-tile through the regime's read path. On the
// frozen-conductance path the result lands in dst (allocated when nil)
// through the baked kernels, skipping the rows outside act — the spike
// list of the previous layer (nil: scan the input). The wear path keeps
// its legacy allocating reads and ignores act/dst/sc.
//
//nebula:hotpath
func (env *execEnv) evaluate(st *SuperTile, in []float64, act []int, dst []float64, sc *EvalScratch) ([]float64, error) {
	if env.wear {
		return st.Evaluate(in)
	}
	if dst == nil || len(dst) != st.cols {
		dst = make([]float64, st.cols)
	}
	if err := st.EvaluateReadInto(dst, in, act, env.noise, env.cross, sc); err != nil {
		return nil, err
	}
	return dst, nil
}

// coreStep advances one in-core spiking position by one timestep against
// the run's private neuron bank, mirroring SNNCore.step cycle for cycle.
// act is the input spike list (nil: scan); the spike vector returned
// aliases sr.fire and is valid until the stage's next step.
//
//nebula:hotpath
func (env *execEnv) coreStep(core *SNNCore, sr *stageRun, pos int, in []float64, act []int, bias []float64, res *RunResult) ([]float64, error) {
	bank := sr.neurons
	if (pos+1)*core.kernels > len(bank) {
		return nil, fmt.Errorf("arch: position %d beyond allocated replicas", pos)
	}
	res.Cycles++ // cycle 1: eDRAM → IB
	res.EDRAMAccesses++
	sums, err := env.evaluate(core.ST, in, act, sr.sums, &sr.sc)
	if err != nil {
		return nil, err
	}
	res.Cycles++ // cycle 2: drive crossbars, integrate at NU
	if bias != nil {
		for i := range sums {
			if i < len(bias) {
				sums[i] += bias[i]
			}
		}
	}
	if len(sr.fire) != len(sums) {
		sr.fire = make([]float64, len(sums))
	}
	spikes := integrateBankInto(sr.fire, core.ST.P, core.VTh, bank[pos*core.kernels:(pos+1)*core.kernels], sums)
	res.Spikes += spikes
	res.Cycles++ // cycle 3: OB → eDRAM
	res.EDRAMAccesses++
	return sr.fire, nil
}

// float64sEqual reports bitwise equality of two value vectors.
//
//nebula:hotpath
func float64sEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// coreStepEvent is coreStep on the event-driven path: the input spike
// plane drives a packed super-tile read (silent stack-height windows
// skip their AC reads entirely), and dense stages additionally consult
// the timestep-repeat cache — when the input plane and the
// super-tile's conductance generation both match the previous step,
// the cached column sums and the read's crossbar-stats delta are
// replayed instead of recomputed. Membrane integration always runs
// against the replica bank, so neuron state stays cycle-exact and the
// emitted spikes are bitwise identical to the dense walk. When outPl
// is non-nil the emitted fire vector's plane is built during the
// integrate walk (no separate Pack scan).
//
//nebula:hotpath
func (env *execEnv) coreStepEvent(core *SNNCore, sr *stageRun, pos int, in []float64, pl *spikeplane.Plane, outPl *spikeplane.Plane, bias []float64, useCache bool, res *RunResult) ([]float64, error) {
	bank := sr.neurons
	if (pos+1)*core.kernels > len(bank) {
		return nil, fmt.Errorf("arch: position %d beyond allocated replicas", pos)
	}
	res.Cycles++ // cycle 1: eDRAM → IB
	res.EDRAMAccesses++
	res.PackedWords += int64(len(pl.WordSlice()))
	res.SpikesSkipped += int64(pl.Len() - pl.Count())
	if len(sr.sums) != core.ST.cols {
		sr.sums = make([]float64, core.ST.cols)
	}
	hit := false
	if useCache && sr.haveLast {
		if gen := core.ST.GenSum(); gen == sr.lastGen &&
			pl.Binary() == sr.lastPlane.Binary() &&
			pl.EqualWords(&sr.lastPlane) &&
			(pl.Binary() || float64sEqual(in, sr.lastIn)) {
			copy(sr.sums, sr.lastSums)
			res.RepeatReads++
			hit = true
		}
	}
	if !hit {
		// Evaluate into a private stats bucket and fold it below with
		// the exact adds the hit path replays — that shared fold is
		// what makes a cache hit's accounting bitwise identical to a
		// miss (a scalar after-minus-before delta would round
		// differently than the original per-array accumulation).
		sr.lastCross = crossbar.Stats{}
		if err := core.ST.EvaluateReadPacked(sr.sums, in, pl, env.noise, &sr.lastCross, &sr.sc); err != nil {
			return nil, err
		}
		if useCache {
			sr.lastPlane.CopyFrom(pl)
			if !pl.Binary() {
				sr.lastIn = append(sr.lastIn[:0], in...)
			}
			if len(sr.lastSums) != len(sr.sums) {
				sr.lastSums = make([]float64, len(sr.sums))
			}
			copy(sr.lastSums, sr.sums)
			sr.lastGen = core.ST.GenSum()
			sr.haveLast = true
		}
	}
	if env.cross != nil {
		env.cross.MACs += sr.lastCross.MACs
		env.cross.ActiveRowSum += sr.lastCross.ActiveRowSum
		env.cross.OutputCurrentUA += sr.lastCross.OutputCurrentUA
	}
	sums := sr.sums
	res.Cycles++ // cycle 2: drive crossbars, integrate at NU
	if bias != nil {
		for i := range sums {
			if i < len(bias) {
				sums[i] += bias[i]
			}
		}
	}
	if len(sr.fire) != len(sums) {
		sr.fire = make([]float64, len(sums))
	}
	var spikes int64
	if outPl != nil {
		spikes = integrateBankIntoPlane(sr.fire, outPl, core.ST.P, core.VTh, bank[pos*core.kernels:(pos+1)*core.kernels], sums)
	} else {
		spikes = integrateBankInto(sr.fire, core.ST.P, core.VTh, bank[pos*core.kernels:(pos+1)*core.kernels], sums)
	}
	res.Spikes += spikes
	res.Cycles++ // cycle 3: OB → eDRAM
	res.EDRAMAccesses++
	return sr.fire, nil
}

// spillStep advances one spill-stage position against the run's private
// RU membrane registers, mirroring RUSpillCore.StepAt. The spike vector
// returned aliases sr.fire. Spill blocks let the kernels rediscover
// their slice's activity (the per-block row windows would need the
// spike list re-based anyway).
//
//nebula:hotpath
func (env *execEnv) spillStep(sp *RUSpillCore, sr *stageRun, pos int, in, bias []float64, pl *spikeplane.Plane, res *RunResult) ([]float64, error) {
	membranes := sr.membranes
	if (pos+1)*sp.kernels > len(membranes) {
		return nil, fmt.Errorf("arch: position %d beyond allocated registers", pos)
	}
	if len(in) != sp.rowBounds[len(sp.rowBounds)-1] {
		return nil, fmt.Errorf("arch: input length %d, want %d", len(in), sp.rowBounds[len(sp.rowBounds)-1])
	}
	res.Cycles++ // fetch
	res.EDRAMAccesses++
	if len(sr.total) != sp.kernels {
		sr.total = make([]float64, sp.kernels)
	}
	total := sr.total
	for i := range total {
		total[i] = 0
	}
	if env.event && pl != nil {
		res.PackedWords += int64(len(pl.WordSlice()))
		res.SpikesSkipped += int64(pl.Len() - pl.Count())
	}
	for b, st := range sp.blocks {
		lo, hi := sp.rowBounds[b], sp.rowBounds[b+1]
		var part []float64
		if env.event && pl != nil {
			// Event path: window the stage's spike plane onto this
			// block's rows (block bounds are 64-aligned, so the view is
			// a subslice). A silent block contributes quantizePartial(0)
			// = +0 to every kernel, exactly what total already holds —
			// skip its reads and conversion charges. The membrane loop
			// below always runs, because residual potentials can cross
			// threshold on zero input.
			win := spikeplane.Window(pl.WordSlice(), lo, hi, nil)
			if spikeplane.IsZeroWords(win) {
				continue
			}
			sr.winPlane.AsView(win, hi-lo, pl.Binary())
			if len(sr.sums) != st.cols {
				sr.sums = make([]float64, st.cols)
			}
			if err := st.EvaluateReadPacked(sr.sums, in[lo:hi], &sr.winPlane, env.noise, env.cross, &sr.sc); err != nil {
				return nil, err
			}
			part = sr.sums
		} else {
			var err error
			part, err = env.evaluate(st, in[lo:hi], nil, sr.sums, &sr.sc)
			if err != nil {
				return nil, err
			}
		}
		// Digitize the block's partial sums (one conversion per kernel).
		for kIdx, v := range part {
			total[kIdx] += sp.quantizePartial(v)
		}
		res.ADCConversions += int64(sp.kernels)
		res.Cycles++ // one digitization cycle per block (≤128/cycle)
	}
	res.Cycles++ // reduce + activate at the RU
	bank := membranes[pos*sp.kernels : (pos+1)*sp.kernels]
	if len(sr.fire) != sp.kernels {
		sr.fire = make([]float64, sp.kernels)
	}
	out := sr.fire
	for i := range out {
		out[i] = 0
	}
	// On the event path the fire plane is built during this walk, so
	// the caller hands the packed output on without a Pack re-scan.
	fill := env.event && pl != nil
	if fill {
		sr.outPlane.Reset(sp.kernels)
	}
	for kIdx := range bank {
		inc := total[kIdx]
		if bias != nil && kIdx < len(bias) {
			inc += bias[kIdx]
		}
		bank[kIdx] += inc
		if bank[kIdx] >= sp.VTh {
			out[kIdx] = 1
			if fill {
				sr.outPlane.Set(kIdx)
			}
			bank[kIdx] -= sp.VTh
			res.Spikes++
		}
	}
	res.Cycles++ // write back
	res.EDRAMAccesses++
	return out, nil
}

// biasData unwraps an optional bias tensor.
func biasData(b *tensor.Tensor) []float64 {
	if b == nil {
		return nil
	}
	return b.Data()
}

// stepStage advances one spiking stage by one timestep. pl is the
// packed spike plane of x on the event-driven path (nil selects the
// exact legacy dense walk); the returned plane covers the returned
// tensor and is nil when the stage does not produce one. Event-driven
// skips are value-preserving by construction: a silent stage or window
// can only be skipped when doing so leaves every membrane, accumulator
// and output bit identical to the dense walk (DESIGN.md §15). Every
// buffer the step touches is owned by sr, so a warm step allocates
// nothing; the returned tensor is valid until the stage's next step.
//
//nebula:hotpath
func (env *execEnv) stepStage(hw *stageHW, sr *stageRun, x *tensor.Tensor, pl *spikeplane.Plane, res *RunResult) (*tensor.Tensor, *spikeplane.Plane, error) {
	switch hw.kind {
	case "conv":
		gt := hw.gather
		if gt == nil {
			return nil, nil, fmt.Errorf("arch: conv stage not programmed (compile with WithInputShape)")
		}
		if x.NDim() != 3 || !gt.fits(x.Dim(1), x.Dim(2)) || x.Size() != hw.inC*gt.h*gt.w {
			return nil, nil, fmt.Errorf("arch: conv stage %s compiled for a %d×%d×%d input, got %v", hw.name, hw.inC, gt.h, gt.w, x.Shape())
		}
		out := sr.convOut
		od := out.Data()
		if pl != nil {
			// Event path: pre-zero the output plane so skipped positions
			// need no writes, and take the whole-stage exit on a silent
			// input (zero windows integrate nothing, so no neuron state
			// moves; a bias would break that, hence the guard).
			clear(od)
			res.PackedWords += int64(len(pl.WordSlice()))
			if hw.bias == nil && pl.IsZero() {
				res.SilentStageSkips++
				res.SpikesSkipped += int64(pl.Len())
				sr.outPlane.Reset(len(od))
				return out, &sr.outPlane, nil
			}
		}
		gcIn := hw.inC / hw.groups
		gcOut := hw.outC / hw.groups
		npos := gt.npos()
		subLen := gcIn * gt.h * gt.w
		colBuf := sr.colBuf
		bias := biasData(hw.bias)
		for g := 0; g < hw.groups; g++ {
			sub := x.Data()[g*subLen : (g+1)*subLen]
			for pos := 0; pos < npos; pos++ {
				// Grouped case: per-group kernel matrices share the row
				// space; each (position, group) pair owns a replica bank.
				bankPos := pos
				if hw.groups > 1 {
					bankPos = pos*hw.groups + g
				}
				gt.gather(colBuf, sub, pos)
				var spikes []float64
				var err error
				if pl != nil {
					// Pack the window's spike plane (the table scatters
					// indices, so the window plane is rebuilt, not
					// windowed from pl).
					wp := &sr.winPlane
					wp.Reset(len(colBuf))
					for r, v := range colBuf {
						if v != 0 {
							wp.Set(r)
							//nebula:lint-ignore float-eq binary detection is exact by design: only the literal 1.0 lets the bit pattern stand in for the value
							if v != 1.0 {
								wp.MarkGraded()
							}
						}
					}
					if bias == nil && wp.IsZero() {
						// Silent window: the replica bank integrates
						// nothing and every output slot stays zero.
						res.PackedWords += int64(len(wp.WordSlice()))
						res.SpikesSkipped += int64(len(colBuf))
						continue
					}
					spikes, err = env.coreStepEvent(hw.snnCore, sr, bankPos, colBuf, wp, nil, bias, false, res)
				} else {
					// The window's spike list; the kernels skip silent rows.
					sr.act = sr.act[:0]
					for r, v := range colBuf {
						if v != 0 {
							sr.act = append(sr.act, r)
						}
					}
					spikes, err = env.coreStep(hw.snnCore, sr, bankPos, colBuf, sr.act, bias, res)
				}
				if err != nil {
					return nil, nil, err
				}
				for k := g * gcOut; k < (g+1)*gcOut; k++ {
					od[k*npos+pos] = spikes[k]
				}
			}
		}
		// Spikes travel to the consumer stage over the mesh; the shared
		// mesh simulator is only driven on the sequential wear path.
		res.NoCPackets++
		res.NoCHops += env.hops
		//nebula:coldpath wear runs drive the shared mesh simulator
		if env.wear {
			env.ch.Mesh.Send(noc.Node{X: 0, Y: 0}, noc.Node{X: 1, Y: 0}, maxInt(1, int(out.Sum())), 0)
		}
		if pl != nil {
			sr.outPlane.Pack(od)
			return out, &sr.outPlane, nil
		}
		return out, nil, nil
	case "dense":
		in := x.Data()
		var err error
		switch {
		case hw.spill != nil:
			_, err = env.spillStep(hw.spill, sr, 0, in, biasData(hw.bias), pl, res)
		case pl != nil:
			if hw.bias == nil && pl.IsZero() {
				// Whole-stage skip: integrateBankInto ignores zero
				// increments, so the dense walk would touch no neuron
				// and emit no spike — return the zero vector without
				// charging cycles, packets or accesses.
				res.SilentStageSkips++
				res.PackedWords += int64(len(pl.WordSlice()))
				res.SpikesSkipped += int64(pl.Len())
				clear(sr.fire)
				sr.outPlane.Reset(len(sr.fire))
				return sr.view, &sr.outPlane, nil
			}
			_, err = env.coreStepEvent(hw.snnCore, sr, 0, in, pl, &sr.outPlane, biasData(hw.bias), true, res)
		default:
			// Gather the previous layer's spike list so the crossbar
			// kernels touch only the active rows.
			sr.act = sr.act[:0]
			for i, v := range in {
				if v != 0 {
					sr.act = append(sr.act, i)
				}
			}
			_, err = env.coreStep(hw.snnCore, sr, 0, in, sr.act, biasData(hw.bias), res)
		}
		if err != nil {
			return nil, nil, err
		}
		res.NoCPackets++
		res.NoCHops += env.hops
		// Both step kinds emit into sr.fire, which sr.view wraps.
		if pl != nil {
			// sr.outPlane was filled during the integrate (coreStepEvent)
			// or threshold (spillStep) walk — no Pack re-scan needed.
			return sr.view, &sr.outPlane, nil
		}
		return sr.view, nil, nil
	case "pool":
		c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
		oh := tensor.ConvOutSize(h, hw.pool.K, hw.pool.Stride, 0)
		ow := tensor.ConvOutSize(w, hw.pool.K, hw.pool.Stride, 0)
		if sr.poolOut == nil || sr.poolOut.Dim(0) != c || sr.poolOut.Dim(1) != oh || sr.poolOut.Dim(2) != ow {
			//nebula:coldpath first step of a fresh run state
			sr.poolCur, sr.poolOut = tensor.New(c, oh, ow), tensor.New(c, oh, ow)
		}
		out := sr.poolOut
		if pl != nil {
			res.PackedWords += int64(len(pl.WordSlice()))
			if pl.IsZero() {
				// Silent input: average pooling of zeros is zero, and a
				// zero-current IF step moves no membrane (leak 1, no
				// refractory) and fires nothing — a zero output is the
				// exact dense result.
				res.SilentStageSkips++
				res.SpikesSkipped += int64(pl.Len())
				clear(out.Data())
				sr.outPlane.Reset(out.Size())
				return out, &sr.outPlane, nil
			}
		}
		snn.AvgPoolInto(sr.poolCur, x, hw.pool.K, hw.pool.Stride)
		sr.poolIF.FireInto(out, sr.poolCur)
		if pl != nil {
			sr.outPlane.Pack(out.Data())
			return out, &sr.outPlane, nil
		}
		return out, nil, nil
	case "flatten":
		// Flattening reorders nothing, so the plane carries over; the
		// view is rebuilt only when the input buffer changes (the first
		// step, or an encoder that emits a fresh tensor per step).
		if !isFlatView(sr.view, x) {
			//nebula:coldpath once per input buffer
			sr.view = x.Reshape(x.Size())
		}
		return sr.view, pl, nil
	case "output":
		// Digital accumulation at the routing units.
		in := x.Data()
		n, inLen := hw.outW.Dim(0), hw.outW.Dim(1)
		if len(in) != inLen {
			return nil, nil, fmt.Errorf("arch: read-out %s expects %d inputs, got %d", hw.name, inLen, len(in))
		}
		inc := sr.outInc
		if pl != nil {
			res.PackedWords += int64(len(pl.WordSlice()))
			if hw.outB == nil && pl.IsZero() {
				// Silent timestep contributes exactly zero to every
				// class accumulator — skip the read-out entirely.
				res.SilentStageSkips++
				res.SpikesSkipped += int64(pl.Len())
				return sr.outAcc, nil, nil
			}
		}
		if pl != nil && pl.Binary() {
			// Binary plane: each active bit contributes its weight
			// verbatim (1.0·w == w), and summing in ascending index
			// order matches the dense inner product bit for bit —
			// skipped zero terms only ever add ±0 to a sum that is
			// never −0.
			wd := hw.outW.Data()
			for k := 0; k < n; k++ {
				row := wd[k*inLen : (k+1)*inLen]
				s := 0.0
				it := pl.Iter()
				for j, ok := it.Next(); ok; j, ok = it.Next() {
					s += row[j]
				}
				inc[k] = s
			}
			res.SpikesSkipped += int64(pl.Len() - pl.Count())
		} else {
			matVecInto(inc, hw.outW.Data(), in)
		}
		if hw.outB != nil {
			addInto(inc, hw.outB.Data())
		}
		addInto(sr.outAcc.Data(), inc)
		// The accumulator is only read after the final timestep;
		// returning it uncloned avoids a per-step allocation.
		return sr.outAcc, nil, nil
	}
	return nil, nil, fmt.Errorf("arch: unknown stage kind %q", hw.kind)
}

// isFlatView reports whether v is a one-dimensional view over exactly
// x's data.
//
//nebula:hotpath
func isFlatView(v, x *tensor.Tensor) bool {
	if v == nil || v.NDim() != 1 || v.Size() != x.Size() {
		return false
	}
	return v.Size() == 0 || &v.Data()[0] == &x.Data()[0]
}

// matVecInto sets dst[k] to the inner product of x with row k of the
// row-major len(dst)×len(x) matrix w, summing in ascending index order
// from +0 (the order tensor.MatMulTransBInto uses).
//
//nebula:hotpath
func matVecInto(dst, w, x []float64) {
	n := len(x)
	for k := range dst {
		row := w[k*n : (k+1)*n]
		s := 0.0
		for j, v := range x {
			s += v * row[j]
		}
		dst[k] = s
	}
}

// addInto adds src elementwise into dst.
//
//nebula:hotpath
func addInto(dst, src []float64) {
	for i, v := range src {
		dst[i] += v
	}
}

// annExec drives one input vector through an ANN core with the stage
// bias injected pre-saturation, mirroring the legacy
// Execute/annExecuteWithBias pair without mutating the shared core. The
// saturated activations land in dst, which must hold core.ST.cols
// values; sc is the stage's evaluation scratch.
//
//nebula:hotpath
func (env *execEnv) annExec(core *ANNCore, in []float64, bias *tensor.Tensor, dst []float64, sc *EvalScratch, res *RunResult) error {
	bd := biasData(bias)
	res.Cycles++ // cycle 1: eDRAM → IB
	res.EDRAMAccesses++
	sums, err := env.evaluate(core.ST, in, nil, dst, sc)
	if err != nil {
		return err
	}
	res.Cycles++ // cycle 2: drive crossbars, threshold at NU
	for j, v := range sums {
		if bd != nil {
			// Bias is added pre-saturation: rectify the raw sum at a
			// lifted ceiling, inject the bias, then apply the device
			// transfer — identical to the deprecated clip-lift dance.
			if v < 0 {
				v = 0
			} else if v > 1e18 {
				v = 1e18
			}
			if j < len(bd) {
				v += bd[j]
			}
		}
		if v < 0 {
			v = 0
		} else if v > core.Clip {
			v = core.Clip
		}
		dst[j] = v
	}
	res.Cycles++ // cycle 3: OB → eDRAM
	res.EDRAMAccesses++
	return nil
}

// annStage executes one compiled stage in ANN mode. Its output lives in
// ar and is valid until the stage's next execution.
//
//nebula:hotpath
func (env *execEnv) annStage(hw *annStageHW, ar *annRun, x *tensor.Tensor, res *RunResult) (*tensor.Tensor, error) {
	switch hw.kind {
	case "conv":
		if x.NDim() != 3 {
			return nil, fmt.Errorf("arch: conv stage %s needs a C×H×W input, got %v", hw.name, x.Shape())
		}
		h, w := x.Dim(1), x.Dim(2)
		gt := hw.gather
		if !gt.fits(h, w) {
			if !ar.gather.fits(h, w) {
				//nebula:coldpath input size the compile did not fix: derived once per run state
				ag, err := newGatherTable(hw.gcIn, h, w, hw.kh, hw.kw, hw.stride, hw.pad)
				if err != nil {
					return nil, fmt.Errorf("arch: conv stage %s: %w", hw.name, err)
				}
				ar.gather = ag
			}
			gt = ar.gather
		}
		subLen := hw.gcIn * h * w
		if x.Size() != hw.groups*subLen {
			return nil, fmt.Errorf("arch: conv stage %s expects %d input channels, got %v", hw.name, hw.groups*hw.gcIn, x.Shape())
		}
		if ar.out == nil || ar.out.Dim(1) != gt.oh || ar.out.Dim(2) != gt.ow {
			//nebula:coldpath first run of a fresh run state
			ar.out, ar.col, ar.row = tensor.New(hw.outC, gt.oh, gt.ow), make([]float64, gt.rfg), make([]float64, hw.core.ST.cols)
		}
		od := ar.out.Data()
		npos := gt.npos()
		gcOut := hw.outC / hw.groups
		for g := 0; g < hw.groups; g++ {
			sub := x.Data()[g*subLen : (g+1)*subLen]
			for pos := 0; pos < npos; pos++ {
				gt.gather(ar.col, sub, pos)
				if err := env.annExec(hw.core, ar.col, hw.bias, ar.row, &ar.sc, res); err != nil {
					return nil, err
				}
				for k := g * gcOut; k < (g+1)*gcOut; k++ {
					od[k*npos+pos] = ar.row[k]
				}
			}
		}
		return ar.out, nil
	case "dense":
		if ar.out == nil {
			//nebula:coldpath first run of a fresh run state
			ar.row = make([]float64, hw.core.ST.cols)
			//nebula:coldpath
			ar.out = tensor.FromSlice(ar.row, len(ar.row))
		}
		if err := env.annExec(hw.core, x.Data(), hw.bias, ar.row, &ar.sc, res); err != nil {
			return nil, err
		}
		return ar.out, nil
	case "pool":
		// ANN mode: plain average pooling in the NU datapath (no IF).
		c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
		oh := tensor.ConvOutSize(h, hw.poolK, hw.poolStride, 0)
		ow := tensor.ConvOutSize(w, hw.poolK, hw.poolStride, 0)
		if ar.out == nil || ar.out.Dim(0) != c || ar.out.Dim(1) != oh || ar.out.Dim(2) != ow {
			//nebula:coldpath first run of a fresh run state
			ar.out = tensor.New(c, oh, ow)
		}
		snn.AvgPoolInto(ar.out, x, hw.poolK, hw.poolStride)
		return ar.out, nil
	case "flatten":
		if !isFlatView(ar.out, x) {
			//nebula:coldpath once per input buffer
			ar.out = x.Reshape(x.Size())
		}
		return ar.out, nil
	case "output":
		n, inLen := hw.outW.Dim(0), hw.outW.Dim(1)
		if x.Size() != inLen {
			return nil, fmt.Errorf("arch: read-out %s expects %d inputs, got %d", hw.name, inLen, x.Size())
		}
		if ar.out == nil {
			//nebula:coldpath first run of a fresh run state
			ar.out = tensor.New(n)
		}
		od := ar.out.Data()
		matVecInto(od, hw.outW.Data(), x.Data())
		if hw.outB != nil {
			addInto(od, hw.outB.Data())
		}
		return ar.out, nil
	}
	return nil, fmt.Errorf("arch: unknown ANN stage kind %q", hw.kind)
}

// stepStageObs advances spiking stage i by one timestep, attributing
// the counter delta (and a trace event) to its bucket when the run
// carries a shard. The nil-shard path is a single branch on top of the
// unobserved stepStage.
func (s *Session) stepStageObs(env *execEnv, i, t int, hw *stageHW, sr *stageRun, x *tensor.Tensor, pl *spikeplane.Plane, res *RunResult) (*tensor.Tensor, *spikeplane.Plane, error) {
	if env.shard == nil {
		return env.stepStage(hw, sr, x, pl, res)
	}
	m := env.mark(res)
	out, opl, err := env.stepStage(hw, sr, x, pl, res)
	if err != nil {
		return nil, nil, err
	}
	idx := s.snnBase + i
	d := env.observe(m, res, env.shard.Stage(idx))
	if env.shard.TraceEnabled() {
		env.shard.AddTrace(obs.TraceEvent{Timestep: t, Stage: idx, Layer: hw.name, Spikes: d})
	}
	return out, opl, nil
}

// annStageObs executes continuous stage j, attributing the counter
// delta to its bucket when the run carries a shard.
func (s *Session) annStageObs(env *execEnv, j int, hw *annStageHW, ar *annRun, x *tensor.Tensor, res *RunResult) (*tensor.Tensor, error) {
	if env.shard == nil {
		return env.annStage(hw, ar, x, res)
	}
	m := env.mark(res)
	out, err := env.annStage(hw, ar, x, res)
	if err != nil {
		return nil, err
	}
	env.observe(m, res, env.shard.Stage(s.annBase+j))
	return out, nil
}

// encodeObs encodes one timestep, attributing the input spikes entering
// the pipeline to the input bucket (stage 0 of spiking layouts).
// IntoEncoders write the run's recycled buffer. On the event-driven path
// it also packs the spike plane that heads the per-timestep plane chain
// and derives the spike count from the plane's popcount.
func (s *Session) encodeObs(env *execEnv, st *runState, enc snn.Encoder, img *tensor.Tensor, t int) (*tensor.Tensor, *spikeplane.Plane) {
	var x *tensor.Tensor
	var pl *spikeplane.Plane
	switch ie := enc.(type) {
	case snn.IntoEncoder:
		if st.encT == nil || !tensor.SameShape(st.encT, img) {
			st.encT = tensor.New(img.Shape()...)
		}
		x = st.encT
		if pe, ok := ie.(snn.PlaneEncoder); ok && env.event {
			// The encoder builds the packed plane during its own walk —
			// no Pack re-scan of the dense vector.
			pl = &st.encPlane
			pe.EncodeIntoPlane(x, pl, img)
		} else {
			ie.EncodeInto(x, img)
		}
	default:
		x = enc.Encode(img)
	}
	if env.event && pl == nil {
		pl = &st.encPlane
		pl.Pack(x.Data())
	}
	if sh := env.shard; sh != nil {
		var n int64
		if pl != nil {
			n = int64(pl.Count())
		} else {
			n = snn.CountSpikes(x)
		}
		sh.Stage(0).SpikesEmitted += n
		if sh.TraceEnabled() {
			sh.AddTrace(obs.TraceEvent{Timestep: t, Stage: 0, Layer: "input", Spikes: n})
		}
	}
	return x, pl
}

// execANN runs one continuous-activation pass.
func (s *Session) execANN(ctx context.Context, img *tensor.Tensor, env *execEnv, st *runState) (*RunResult, error) {
	res := &RunResult{}
	x := img
	for j, hw := range s.annStages {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var err error
		x, err = s.annStageObs(env, j, hw, st.ann[j], x, res)
		if err != nil {
			return nil, err
		}
	}
	res.Output = x.Clone()
	res.Prediction = x.ArgMax()
	return res, nil
}

// execSNN runs T encoded timesteps through the spiking pipeline.
// Cancellation is checked between timesteps so a hung experiment is
// killable mid-window.
func (s *Session) execSNN(ctx context.Context, img *tensor.Tensor, env *execEnv, enc snn.Encoder, st *runState) (*RunResult, error) {
	res := &RunResult{}
	for t := 0; t < s.cfg.Timesteps; t++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		x, pl := s.encodeObs(env, st, enc, img, t)
		for i, hw := range s.snnStages {
			var err error
			x, pl, err = s.stepStageObs(env, i, t, hw, st.stages[i], x, pl, res)
			if err != nil {
				return nil, err
			}
		}
		if env.wear {
			s.chip.tickRetention(s.snnStages, t)
		}
	}
	// The read-out stage integrates increments across timesteps; its
	// accumulator holds the final class potentials.
	out := runOutput(st, s.snnStages)
	res.Output = out
	res.Prediction = out.ArgMax()
	return res, nil
}

// execHybrid runs the spiking front, accumulates boundary spikes at the
// AU, and finishes with the compiled ANN tail.
func (s *Session) execHybrid(ctx context.Context, img *tensor.Tensor, env *execEnv, enc snn.Encoder, st *runState) (*RunResult, error) {
	res := &RunResult{}
	for t := 0; t < s.cfg.Timesteps; t++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		x, pl := s.encodeObs(env, st, enc, img, t)
		for i, hw := range s.snnStages {
			var err error
			x, pl, err = s.stepStageObs(env, i, t, hw, st.stages[i], x, pl, res)
			if err != nil {
				return nil, err
			}
		}
		st.au.Accumulate(x)
		if env.wear {
			s.chip.tickRetention(s.snnStages, t)
		}
	}
	// The recovered activations are in the source (unnormalized) scale of
	// the boundary; renormalize to [0,1] with λ so the normalized weights
	// of the remaining stages apply directly.
	st.auOut = st.au.ReadInto(st.auOut)
	x := st.auOut
	x.ScaleInPlace(1 / s.lambda)
	for j, hw := range s.annStages {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var err error
		x, err = s.annStageObs(env, j, hw, st.ann[j], x, res)
		if err != nil {
			return nil, err
		}
	}
	res.Output = x.Clone()
	res.Prediction = x.ArgMax()
	return res, nil
}

// runOutput reads the final class potentials from the per-run read-out
// accumulator.
func runOutput(st *runState, stages []*stageHW) *tensor.Tensor {
	if n := len(stages); n > 0 {
		if acc := st.stages[n-1].outAcc; acc != nil {
			return acc.Clone()
		}
	}
	return tensor.New(1)
}

// runOne executes a single inference with the given reserved streams.
// When the session carries a recorder, the run fills a private counter
// shard and returns it alongside the result; the caller decides when
// (and whether) to merge it. A failed run's shard is discarded.
func (s *Session) runOne(ctx context.Context, input *tensor.Tensor, rs runStreams) (*RunResult, *obs.RunRecord, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	env := &execEnv{ch: s.chip, wear: s.cfg.Wear, hops: s.engineHops}
	if s.rec != nil {
		env.shard = obs.NewRunRecord(s.obsLayout, s.traceOn)
	}
	if env.wear {
		// Wear runs mutate the programmed arrays, the mesh and the chip
		// health report; serialize them.
		s.wearMu.Lock()
		defer s.wearMu.Unlock()
	} else {
		if s.chip.noise != nil {
			env.noise = rs.noise
		}
		env.cross = &crossbar.Stats{}
		// Event-driven stepping requires a nil read-noise stream: noise
		// draws advance per live column, so skipping a read would shift
		// every later draw. Without noise, skips are value-exact.
		env.event = env.noise == nil && !s.cfg.noEvent
	}
	var enc snn.Encoder
	if s.cfg.Mode != ModeANN {
		enc = s.cfg.sharedEnc
		if enc == nil {
			enc = s.cfg.encFactory(rs.enc)
		}
	}
	st := s.arena.Get().(*runState)
	st.reset()
	defer s.arena.Put(st)
	var res *RunResult
	var err error
	switch s.cfg.Mode {
	case ModeANN:
		res, err = s.execANN(ctx, input, env, st)
	case ModeSNN:
		res, err = s.execSNN(ctx, input, env, enc, st)
	default:
		res, err = s.execHybrid(ctx, input, env, enc, st)
	}
	if err != nil {
		return nil, nil, err
	}
	if env.cross != nil {
		res.Crossbar = *env.cross
	}
	return res, env.shard, nil
}

// mergeShards folds a batch's completed shards into the recorder in
// input order. Input-order merging is what keeps counter totals (which
// include float columns) bitwise identical between sequential and
// parallel execution of the same batch.
func (s *Session) mergeShards(shards []*obs.RunRecord) error {
	if s.rec == nil {
		return nil
	}
	for _, sh := range shards {
		if sh == nil {
			continue
		}
		if err := s.rec.MergeRun(sh); err != nil {
			return err
		}
	}
	return nil
}

// Run executes one inference. Each call reserves the next pair of
// per-run RNG streams, so a loop of Run calls is bitwise identical to
// one RunBatch over the same inputs.
func (s *Session) Run(ctx context.Context, input *tensor.Tensor) (*RunResult, error) {
	res, shard, err := s.runOne(ctx, input, s.reserveStreams(1)[0])
	if err != nil {
		return nil, err
	}
	if shard != nil {
		if err := s.mergeShards([]*obs.RunRecord{shard}); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// ReservedStreams is a pair of per-run RNG streams reserved outside the
// session — by a session pool that owns the stream parent and must be
// able to replay the exact same draws on a different replica. The pool
// reserves one pair per request in request order, keeps the originals,
// and hands each attempt fresh Clones; RunReserved then consumes the
// clone, so a retry of the same request reproduces the failed attempt
// bit for bit no matter which replica serves it.
type ReservedStreams struct {
	// Enc drives the input encoder; Noise drives crossbar read noise.
	Enc, Noise *rng.Rand
}

// RunReserved is Run with the per-run RNG streams supplied by the
// caller instead of drawn from the session parent. The session's own
// stream reservation state is untouched, so sessions used purely
// through RunReserved stay interchangeable: two replicas compiled with
// the same seed produce bitwise-identical results for the same input
// and streams. Safe for concurrent use under the same conditions as
// Run.
func (s *Session) RunReserved(ctx context.Context, input *tensor.Tensor, rs ReservedStreams) (*RunResult, error) {
	res, shard, err := s.runOne(ctx, input, runStreams{enc: rs.Enc, noise: rs.Noise})
	if err != nil {
		return nil, err
	}
	if shard != nil {
		if err := s.mergeShards([]*obs.RunRecord{shard}); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// RunBatch executes a batch of inferences across the session's worker
// pool and returns one result per input, in input order. Per-run RNG
// streams are reserved in input order before any worker starts, so the
// outputs are bitwise identical to calling Run on each input
// sequentially, at any parallelism. Cancellation is honoured between
// batch items and between the timesteps of each spiking run; on error
// the first observed failure is returned and the batch is abandoned.
//
// When the session carries a recorder, each run fills a private counter
// shard; the shards are merged into the recorder in input order only
// after the whole batch succeeds, so recorded totals are bitwise
// identical to sequential execution at any parallelism. A failed or
// cancelled batch contributes nothing to the recorder — not even its
// completed runs.
func (s *Session) RunBatch(ctx context.Context, inputs []*tensor.Tensor) ([]*RunResult, error) {
	if len(inputs) == 0 {
		return nil, nil
	}
	streams := s.reserveStreams(len(inputs))
	results := make([]*RunResult, len(inputs))
	shards := make([]*obs.RunRecord, len(inputs))
	par := s.Parallelism(len(inputs))
	if par <= 1 {
		for i, in := range inputs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			res, shard, err := s.runOne(ctx, in, streams[i])
			if err != nil {
				return nil, fmt.Errorf("arch: batch input %d: %w", i, err)
			}
			results[i] = res
			shards[i] = shard
		}
		if err := s.mergeShards(shards); err != nil {
			return nil, err
		}
		return results, nil
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, len(inputs))
	idx := make(chan int)
	done := make(chan struct{})
	for w := 0; w < par; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := range idx {
				if err := cctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				res, shard, err := s.runOne(cctx, inputs[i], streams[i])
				if err != nil {
					errs[i] = err
					cancel()
					continue
				}
				results[i] = res
				shards[i] = shard
			}
		}()
	}
	for i := range inputs {
		idx <- i
	}
	close(idx)
	for w := 0; w < par; w++ {
		<-done
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Prefer the lowest-index real failure over cancellations it caused.
	var first error
	for i, err := range errs {
		if err == nil {
			continue
		}
		wrapped := fmt.Errorf("arch: batch input %d: %w", i, err)
		if !errors.Is(err, context.Canceled) {
			return nil, wrapped
		}
		if first == nil {
			first = wrapped
		}
	}
	if first != nil {
		return nil, first
	}
	if err := s.mergeShards(shards); err != nil {
		return nil, err
	}
	return results, nil
}
