package arch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/crossbar"
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/snn"
	"repro/internal/spikeplane"
	"repro/internal/tensor"
)

// This file is the session execution engine: the one stage stepper
// shared by every mode, the per-run scratch arena, and the RunBatch
// worker pool. Every run walks the same path: packed spike planes flow
// between stages and every crossbar read is driven by one. What differs
// between runs is only what may be skipped — silent stages, silent
// windows and repeated timesteps are skipped exactly when no read-noise
// draw could notice (execEnv.skip). No run mutates the programmed
// arrays: every read goes through the caller-stream, caller-stats read
// path, so runs share one compiled session concurrently.
//
// RunReference walks the same stages as a reference: no skips, no
// repeat cache, every read through the index path.

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
// per stage (stages for the spiking front, ann for the continuous tail),
// plus the hybrid accumulator. Instances are recycled through the session arena; reset
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
	// head of the per-timestep plane chain threaded through the stages.
	encPlane spikeplane.Plane
	// encT is the recycled encoder output buffer (IntoEncoder path).
	encT *tensor.Tensor
	// annPlane is the packed plane of the continuous pipeline's input
	// (the image in ANN mode, the accumulator read-out in hybrid mode).
	annPlane spikeplane.Plane
}

// stageRun holds one stage's per-run state. Exactly one group of the
// semantic fields is populated, matching the stage kind; the scratch
// fields below them are reused across the stage's timesteps so the
// steady-state hot loop allocates nothing per step.
type stageRun struct {
	// neurons is the position-replica MTJ bank of an in-core stage, one
	// contiguous slab so the integrate walk streams through memory.
	neurons []device.SpikingNeuron
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

	// sums receives the stage's crossbar column sums; fire receives the
	// spike vector.
	sums, fire []float64
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

	// outPlane is the stage's packed output spike plane.
	outPlane spikeplane.Plane
	// winPlane is the packed scratch for conv receptive-field windows
	// and spill-block views.
	winPlane spikeplane.Plane

	// Timestep-repeat cache of a dense in-core stage (skipping walk).
	// The cached column sums are a pure function of the input values:
	// no run mutates an array, and reset empties the cache, so a run's
	// repeat count never depends on which recycled state it was handed;
	// lastIn is only kept for graded (non-binary) planes, whose bit
	// pattern underdetermines the values. lastCross is the cached
	// read's crossbar-stats delta, replayed on a hit so accounting is
	// identical either way.
	lastPlane spikeplane.Plane
	lastIn    []float64
	lastSums  []float64
	lastCross crossbar.Stats
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
	// win is the packed plane of the conv window in col; outPlane is
	// the packed plane of out.
	win, outPlane spikeplane.Plane
}

// runArena recycles run states across runs and workers. It is a
// session-owned free list, not a sync.Pool, because a GC empties a pool:
// every later run would rebuild its state, and a warm session would
// allocate in step with the collector. The list keeps at most limit
// states, the most runs that RunBatch workers and concurrent callers
// usually hold at once; states returned beyond that are dropped.
type runArena struct {
	mu    sync.Mutex
	free  []*runState
	limit int
}

// get pops a recycled state, or allocates one shaped for s when the
// list is empty.
func (a *runArena) get(s *Session) *runState {
	a.mu.Lock()
	if n := len(a.free); n > 0 {
		st := a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		a.mu.Unlock()
		return st
	}
	a.mu.Unlock()
	return s.newRunState()
}

// put returns a state to the list, dropping it when the list is full.
func (a *runArena) put(st *runState) {
	a.mu.Lock()
	if len(a.free) < a.limit {
		a.free = append(a.free, st)
	}
	a.mu.Unlock()
}

// newRunState allocates scratch state shaped for the compiled pipeline.
func (s *Session) newRunState() *runState {
	st := &runState{stages: make([]*stageRun, s.cut), ann: make([]*annRun, len(s.stages)-s.cut)}
	for i, hw := range s.stages[:s.cut] {
		sr := &stageRun{}
		switch {
		case hw.core != nil:
			sr.neurons = neuronBank(hw.core)
			sr.sums = make([]float64, hw.core.ST.cols)
			sr.fire = make([]float64, hw.core.ST.cols)
			sr.view = tensor.FromSlice(sr.fire, len(sr.fire))
			if gt := hw.gather; gt != nil {
				sr.colBuf = make([]float64, gt.rfg)
				sr.convOut = tensor.New(hw.outC, gt.oh, gt.ow)
			}
		case hw.spill != nil:
			sr.membranes = make([]float64, hw.spill.kernels*hw.spill.positions)
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

// neuronBank allocates a core's position-replica neurons: kernels MTJ
// neurons for every output position, at rest.
func neuronBank(core *neuralCore) []device.SpikingNeuron {
	bank := make([]device.SpikingNeuron, core.kernels*core.positions)
	for i := range bank {
		bank[i].P = core.ST.P
	}
	return bank
}

// reset returns the scratch state to rest and empties the repeat
// caches.
func (st *runState) reset() {
	for _, sr := range st.stages {
		sr.haveLast = false
		for i := range sr.neurons {
			sr.neurons[i].Reset()
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
	// noise is the run's private read-noise stream (nil when the chip has
	// no noise generator or no read noise to draw).
	noise *rng.Rand
	// cross collects the run's crossbar activity.
	cross crossbar.Stats
	// shard is the run's private counter shard (nil: observation
	// disabled, the engine takes no accounting branches).
	shard *obs.RunRecord
	// hops is the mesh distance charged per inter-stage packet.
	hops int64
	// skip lets silent stages and windows skip their reads and dense
	// stages consult the timestep-repeat cache. It holds exactly when the
	// production run draws no read noise (noise == nil): a noisy read
	// draws once per live column, so skipping one would shift every
	// later draw (DESIGN.md §15).
	skip bool
	// ref selects the reference walk (RunReference): every read goes
	// through the index path and no packed-plane counter is charged.
	ref bool
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
		packed: res.PackedWords, repeats: res.RepeatReads, cross: env.cross}
	return m
}

// observe folds the delta since m into one shard bucket and returns the
// stage's spike count for tracing.
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
	d := env.cross.Diff(m.cross)
	c.MACReads += d.MACs
	c.ActiveRowSum += d.ActiveRowSum
	c.OutputCurrentUA += d.OutputCurrentUA
	return dSpikes
}

// charge counts one consumed spike plane: its packed words and the
// silent input slots the stage did not drive. The reference walk reads
// through the index path and charges neither.
//
//nebula:hotpath
func (env *execEnv) charge(res *RunResult, pl *spikeplane.Plane, silent int) {
	if !env.ref {
		res.PackedWords += int64(len(pl.WordSlice()))
		res.SpikesSkipped += int64(silent)
	}
}

// gathersFloats reports whether a conv stage whose input plane is pl
// must gather its windows' float values. A binary window's values are
// its bits, and the packed read only reads input rows at set bits, so
// the production walk passes it a nil window instead (see
// SuperTile.EvaluateReadPacked). Graded planes and the reference walk
// gather floats; the reference's float gather is the independent check
// on the bit gather.
func (env *execEnv) gathersFloats(pl *spikeplane.Plane) bool {
	return env.ref || !pl.Binary()
}

// read drives one super-tile read of in, whose packed plane is pl, into
// dst (length K). The production walk reads through the plane, where a
// nil in stands for a binary plane's values; the reference walk reads
// through the index path.
//
//nebula:hotpath
func (env *execEnv) read(st *SuperTile, dst, in []float64, pl *spikeplane.Plane, stats *crossbar.Stats, sc *EvalScratch) error {
	if env.ref {
		return st.EvaluateReadInto(dst, in, nil, env.noise, stats, sc)
	}
	return st.EvaluateReadPacked(dst, in, pl, env.noise, stats, sc)
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

// coreStep advances one in-core spiking position by one timestep against
// the run's private neuron bank: the input plane pl drives the
// super-tile read, the summed currents (plus bias) integrate at the
// bank's MTJ neurons, and the spike vector returned aliases sr.fire,
// valid until the stage's next step. When outPl is non-nil the fire
// vector's plane is built during the integrate walk (no Pack re-scan).
//
// On the skipping walk, stages with useCache consult the
// timestep-repeat cache: when the input plane matches the previous
// step's, the cached column sums and the read's crossbar-stats delta
// are replayed instead of recomputed (no run mutates an array, so the
// sums depend on the input alone). Membrane integration always runs, so neuron state
// stays cycle-exact and the emitted spikes are bitwise identical to the
// reference walk.
//
//nebula:hotpath
func (env *execEnv) coreStep(core *neuralCore, sr *stageRun, pos int, in []float64, pl, outPl *spikeplane.Plane, bias []float64, useCache bool, res *RunResult) ([]float64, error) {
	bank := sr.neurons
	if (pos+1)*core.kernels > len(bank) {
		return nil, fmt.Errorf("arch: position %d beyond allocated replicas", pos)
	}
	res.Cycles++ // cycle 1: eDRAM → IB
	res.EDRAMAccesses++
	env.charge(res, pl, pl.Len()-pl.Count())
	cache := useCache && env.skip
	if cache && sr.haveLast &&
		pl.Binary() == sr.lastPlane.Binary() &&
		pl.EqualWords(&sr.lastPlane) &&
		(pl.Binary() || float64sEqual(in, sr.lastIn)) {
		copy(sr.sums, sr.lastSums)
		res.RepeatReads++
	} else {
		// A skipping walk's read lands in a private stats bucket, folded
		// below with the exact adds a cache hit replays — that shared
		// fold is what makes a hit's accounting bitwise identical to a
		// miss (a scalar after-minus-before delta would round
		// differently than the original per-array accumulation).
		stats := &env.cross
		if env.skip {
			sr.lastCross = crossbar.Stats{}
			stats = &sr.lastCross
		}
		if err := env.read(core.ST, sr.sums, in, pl, stats, &sr.sc); err != nil {
			return nil, err
		}
		if cache {
			sr.lastPlane.CopyFrom(pl)
			if !pl.Binary() {
				sr.lastIn = append(sr.lastIn[:0], in...)
			}
			if len(sr.lastSums) != len(sr.sums) {
				sr.lastSums = make([]float64, len(sr.sums))
			}
			copy(sr.lastSums, sr.sums)
			sr.haveLast = true
		}
	}
	if env.skip {
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
	res.Spikes += integrateBank(sr.fire, outPl, core.ST.P, core.VTh, bank[pos*core.kernels:(pos+1)*core.kernels], sums)
	res.Cycles++ // cycle 3: OB → eDRAM
	res.EDRAMAccesses++
	return sr.fire, nil
}

// spillStep advances one spill-stage position against the run's private
// RU membrane registers: every block reads its row slice of the input
// plane, each partial sum is digitized, the RU reduces them and updates
// the digital membranes, and threshold crossings emit spikes (reset by
// subtraction, matching the converted network). The spike vector
// returned aliases sr.fire; its plane is built in sr.outPlane during
// the threshold walk.
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
	total := sr.total
	clear(total)
	env.charge(res, pl, pl.Len()-pl.Count())
	for b, st := range sp.blocks {
		lo, hi := sp.rowBounds[b], sp.rowBounds[b+1]
		// Window the stage's plane onto this block's rows (block bounds
		// are 64-aligned, so the view is a subslice). A silent block
		// contributes quantizePartial(0) = +0 to every kernel, exactly
		// what total already holds, so the skipping walk skips its reads
		// and conversion charges. The membrane loop below always runs,
		// because residual potentials can cross threshold on zero input.
		win := spikeplane.Window(pl.WordSlice(), lo, hi, nil)
		if env.skip && spikeplane.IsZeroWords(win) {
			continue
		}
		sr.winPlane.AsView(win, hi-lo, pl.Binary())
		if err := env.read(st, sr.sums, in[lo:hi], &sr.winPlane, &env.cross, &sr.sc); err != nil {
			return nil, err
		}
		// Digitize the block's partial sums (one conversion per kernel).
		for kIdx, v := range sr.sums {
			total[kIdx] += sp.quantizePartial(v)
		}
		res.ADCConversions += int64(sp.kernels)
		res.Cycles++ // one digitization cycle per block (≤128/cycle)
	}
	res.Cycles++ // reduce + activate at the RU
	bank := membranes[pos*sp.kernels : (pos+1)*sp.kernels]
	out := sr.fire
	clear(out)
	sr.outPlane.Reset(sp.kernels)
	for kIdx := range bank {
		inc := total[kIdx]
		if bias != nil && kIdx < len(bias) {
			inc += bias[kIdx]
		}
		bank[kIdx] += inc
		if bank[kIdx] >= sp.VTh {
			out[kIdx] = 1
			sr.outPlane.Set(kIdx)
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
// packed spike plane of x; the returned plane covers the returned
// tensor and is nil when the stage does not produce one. Skips are
// value-preserving by construction: a silent stage or window is only
// skipped on the skipping walk, and only when doing so leaves every
// membrane, accumulator and output bit identical to the reference walk
// (DESIGN.md §15). Every buffer the step touches is owned by sr, so a
// warm step allocates nothing; the returned tensor is valid until the
// stage's next step.
//
//nebula:hotpath
func (env *execEnv) stepStage(hw *stageHW, sr *stageRun, x *tensor.Tensor, pl *spikeplane.Plane, res *RunResult) (*tensor.Tensor, *spikeplane.Plane, error) {
	switch hw.kind {
	case "conv":
		gt := hw.gather
		if gt == nil {
			return nil, nil, fmt.Errorf("arch: conv stage not programmed (compile with WithInputShape)")
		}
		if x.NDim() != 3 || !gt.fits(x.Dim(1), x.Dim(2)) || x.Size() != hw.inC*gt.h*gt.w || pl.Len() != x.Size() {
			return nil, nil, fmt.Errorf("arch: conv stage %s compiled for a %d×%d×%d input, got %v", hw.name, hw.inC, gt.h, gt.w, x.Shape())
		}
		out := sr.convOut
		od := out.Data()
		// Pre-zero the output so skipped positions need no writes, and
		// take the whole-stage exit on a silent input (zero windows
		// integrate nothing, so no neuron state moves; a bias would
		// break that, hence the guard).
		clear(od)
		if env.skip && hw.bias == nil && pl.IsZero() {
			res.SilentStageSkips++
			env.charge(res, pl, pl.Len())
			sr.outPlane.Reset(len(od))
			return out, &sr.outPlane, nil
		}
		env.charge(res, pl, 0)
		sr.outPlane.Reset(len(od))
		gcIn := hw.inC / hw.groups
		gcOut := hw.outC / hw.groups
		npos := gt.npos()
		subLen := gcIn * gt.h * gt.w
		wp := &sr.winPlane
		bias := biasData(hw.bias)
		floats := env.gathersFloats(pl)
		for g := 0; g < hw.groups; g++ {
			sub := x.Data()[g*subLen : (g+1)*subLen]
			for pos := 0; pos < npos; pos++ {
				// Grouped case: per-group kernel matrices share the row
				// space; each (position, group) pair owns a replica bank.
				bankPos := pos
				if hw.groups > 1 {
					bankPos = pos*hw.groups + g
				}
				gt.gatherBits(wp, pl, g*subLen, pos)
				if env.skip && bias == nil && wp.IsZero() {
					// Silent window: the replica bank integrates nothing
					// and every output slot stays zero.
					env.charge(res, wp, gt.rfg)
					continue
				}
				var in []float64
				if floats {
					gt.gather(sr.colBuf, sub, pos)
					in = sr.colBuf
				}
				spikes, err := env.coreStep(hw.core, sr, bankPos, in, wp, nil, bias, false, res)
				if err != nil {
					return nil, nil, err
				}
				// Spikes are exactly 1.0, so setting the output plane's
				// bits here builds what Pack(od) would, without a re-scan.
				for k := g * gcOut; k < (g+1)*gcOut; k++ {
					if spikes[k] != 0 {
						od[k*npos+pos] = spikes[k]
						sr.outPlane.Set(k*npos + pos)
					}
				}
			}
		}
		// Spikes travel to the consumer stage over the mesh.
		res.NoCPackets++
		res.NoCHops += env.hops
		return out, &sr.outPlane, nil
	case "dense":
		in := x.Data()
		var err error
		switch {
		case hw.spill != nil:
			_, err = env.spillStep(hw.spill, sr, 0, in, biasData(hw.bias), pl, res)
		case env.skip && hw.bias == nil && pl.IsZero():
			// Whole-stage skip: integrateBank ignores zero increments, so
			// the read would touch no neuron and emit no spike — return
			// the zero vector without charging cycles, packets or
			// accesses.
			res.SilentStageSkips++
			env.charge(res, pl, pl.Len())
			clear(sr.fire)
			sr.outPlane.Reset(len(sr.fire))
			return sr.view, &sr.outPlane, nil
		default:
			_, err = env.coreStep(hw.core, sr, 0, in, pl, &sr.outPlane, biasData(hw.bias), true, res)
		}
		if err != nil {
			return nil, nil, err
		}
		res.NoCPackets++
		res.NoCHops += env.hops
		// Both step kinds emit into sr.fire, which sr.view wraps, and
		// fill sr.outPlane during their integrate or threshold walk.
		return sr.view, &sr.outPlane, nil
	case "pool":
		c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
		oh := tensor.ConvOutSize(h, hw.poolK, hw.poolStride, 0)
		ow := tensor.ConvOutSize(w, hw.poolK, hw.poolStride, 0)
		if sr.poolOut == nil || sr.poolOut.Dim(0) != c || sr.poolOut.Dim(1) != oh || sr.poolOut.Dim(2) != ow {
			//nebula:coldpath first step of a fresh run state
			sr.poolCur, sr.poolOut = tensor.New(c, oh, ow), tensor.New(c, oh, ow)
		}
		out := sr.poolOut
		if env.skip && pl.IsZero() {
			// Silent input: average pooling of zeros is zero, and a
			// zero-current IF step moves no membrane (leak 1, no
			// refractory) and fires nothing — a zero output is the exact
			// pooled result.
			res.SilentStageSkips++
			env.charge(res, pl, pl.Len())
			clear(out.Data())
			sr.outPlane.Reset(out.Size())
			return out, &sr.outPlane, nil
		}
		env.charge(res, pl, 0)
		snn.AvgPoolInto(sr.poolCur, x, hw.poolK, hw.poolStride)
		sr.poolIF.FireInto(out, sr.poolCur)
		sr.outPlane.Pack(out.Data())
		return out, &sr.outPlane, nil
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
		if env.skip && hw.outB == nil && pl.IsZero() {
			// Silent timestep contributes exactly zero to every class
			// accumulator — skip the read-out entirely.
			res.SilentStageSkips++
			env.charge(res, pl, pl.Len())
			return sr.outAcc, nil, nil
		}
		inc := sr.outInc
		if !env.ref && pl.Binary() {
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
			env.charge(res, pl, pl.Len()-pl.Count())
		} else {
			env.charge(res, pl, 0)
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

// annExec drives one input vector, whose packed plane is pl, through a
// continuous core with the stage bias injected pre-saturation. The saturated
// activations land in dst, which must hold core.ST.cols values; when
// outPl is non-nil the graded plane of dst is built during the same
// clip walk. sc is the stage's evaluation scratch.
//
//nebula:hotpath
func (env *execEnv) annExec(core *neuralCore, in []float64, pl, outPl *spikeplane.Plane, bias *tensor.Tensor, dst []float64, sc *EvalScratch, res *RunResult) error {
	bd := biasData(bias)
	res.Cycles++ // cycle 1: eDRAM → IB
	res.EDRAMAccesses++
	if err := env.read(core.ST, dst, in, pl, &env.cross, sc); err != nil {
		return err
	}
	res.Cycles++ // cycle 2: drive crossbars, threshold at NU
	if outPl != nil {
		outPl.Reset(len(dst))
	}
	for j, v := range dst {
		if bd != nil {
			// Bias is added pre-saturation: rectify the raw sum at a
			// lifted ceiling, inject the bias, then apply the device
			// transfer.
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
		} else if v > core.VTh {
			v = core.VTh
		}
		dst[j] = v
		if outPl != nil && v != 0 {
			outPl.Set(j)
			//nebula:lint-ignore float-eq binary detection is exact by design: only the literal 1.0 lets the bit pattern stand in for the value
			if v != 1.0 {
				outPl.MarkGraded()
			}
		}
	}
	res.Cycles++ // cycle 3: OB → eDRAM
	res.EDRAMAccesses++
	return nil
}

// annStage executes one continuous stage; pl is the packed
// plane of x. Its output and the output's plane live in ar and are
// valid until the stage's next execution; the plane is nil after the
// read-out, which ends the pipeline.
//
//nebula:hotpath
func (env *execEnv) annStage(hw *stageHW, ar *annRun, x *tensor.Tensor, pl *spikeplane.Plane, res *RunResult) (*tensor.Tensor, *spikeplane.Plane, error) {
	switch hw.kind {
	case "conv":
		if x.NDim() != 3 {
			return nil, nil, fmt.Errorf("arch: conv stage %s needs a C×H×W input, got %v", hw.name, x.Shape())
		}
		h, w := x.Dim(1), x.Dim(2)
		gt := hw.gather
		if !gt.fits(h, w) {
			if !ar.gather.fits(h, w) {
				//nebula:coldpath input size the compile did not fix: derived once per run state
				ag, err := newGatherTable(hw.inC/hw.groups, h, w, hw.kh, hw.kw, hw.stride, hw.pad)
				if err != nil {
					return nil, nil, fmt.Errorf("arch: conv stage %s: %w", hw.name, err)
				}
				ar.gather = ag
			}
			gt = ar.gather
		}
		subLen := hw.inC / hw.groups * h * w
		if x.Size() != hw.groups*subLen {
			return nil, nil, fmt.Errorf("arch: conv stage %s expects %d input channels, got %v", hw.name, hw.inC, x.Shape())
		}
		if ar.out == nil || ar.out.Dim(1) != gt.oh || ar.out.Dim(2) != gt.ow {
			//nebula:coldpath first run of a fresh run state
			ar.out, ar.col, ar.row = tensor.New(hw.outC, gt.oh, gt.ow), make([]float64, gt.rfg), make([]float64, hw.core.ST.cols)
		}
		if pl.Len() != x.Size() {
			return nil, nil, fmt.Errorf("arch: conv stage %s: plane length %d, input %d", hw.name, pl.Len(), x.Size())
		}
		od := ar.out.Data()
		npos := gt.npos()
		gcOut := hw.outC / hw.groups
		floats := env.gathersFloats(pl)
		for g := 0; g < hw.groups; g++ {
			sub := x.Data()[g*subLen : (g+1)*subLen]
			for pos := 0; pos < npos; pos++ {
				gt.gatherBits(&ar.win, pl, g*subLen, pos)
				var in []float64
				if floats {
					gt.gather(ar.col, sub, pos)
					in = ar.col
				}
				if err := env.annExec(hw.core, in, &ar.win, nil, hw.bias, ar.row, &ar.sc, res); err != nil {
					return nil, nil, err
				}
				for k := g * gcOut; k < (g+1)*gcOut; k++ {
					od[k*npos+pos] = ar.row[k]
				}
			}
		}
		ar.outPlane.Pack(od)
		return ar.out, &ar.outPlane, nil
	case "dense":
		if ar.out == nil {
			//nebula:coldpath first run of a fresh run state
			ar.row = make([]float64, hw.core.ST.cols)
			//nebula:coldpath
			ar.out = tensor.FromSlice(ar.row, len(ar.row))
		}
		if err := env.annExec(hw.core, x.Data(), pl, &ar.outPlane, hw.bias, ar.row, &ar.sc, res); err != nil {
			return nil, nil, err
		}
		return ar.out, &ar.outPlane, nil
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
		ar.outPlane.Pack(ar.out.Data())
		return ar.out, &ar.outPlane, nil
	case "flatten":
		if !isFlatView(ar.out, x) {
			//nebula:coldpath once per input buffer
			ar.out = x.Reshape(x.Size())
		}
		return ar.out, pl, nil
	case "output":
		n, inLen := hw.outW.Dim(0), hw.outW.Dim(1)
		if x.Size() != inLen {
			return nil, nil, fmt.Errorf("arch: read-out %s expects %d inputs, got %d", hw.name, inLen, x.Size())
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
		return ar.out, nil, nil
	}
	return nil, nil, fmt.Errorf("arch: unknown ANN stage kind %q", hw.kind)
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
	idx := s.obsBase + i
	d := env.observe(m, res, env.shard.Stage(idx))
	if env.shard.TraceEnabled() {
		env.shard.AddTrace(obs.TraceEvent{Timestep: t, Stage: idx, Layer: hw.name, Spikes: d})
	}
	return out, opl, nil
}

// runANN executes the continuous stages over x, attributing each
// stage's counter delta to its bucket when the run carries a shard.
func (s *Session) runANN(ctx context.Context, env *execEnv, st *runState, x *tensor.Tensor, res *RunResult) (*tensor.Tensor, error) {
	pl := &st.annPlane
	pl.Pack(x.Data())
	for j, hw := range s.stages[s.cut:] {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var m stageMark
		if env.shard != nil {
			m = env.mark(res)
		}
		var err error
		x, pl, err = env.annStage(hw, st.ann[j], x, pl, res)
		if err != nil {
			return nil, err
		}
		if env.shard != nil {
			env.observe(m, res, env.shard.Stage(s.obsBase+s.cut+j))
		}
	}
	return x, nil
}

// encodeObs encodes one timestep and packs the spike plane that heads
// the per-timestep plane chain, attributing the input spikes entering
// the pipeline to the input bucket (stage 0 of spiking layouts).
// IntoEncoders write the run's recycled buffer; PlaneEncoders also
// build the plane during their own walk (no Pack re-scan).
func (s *Session) encodeObs(env *execEnv, st *runState, enc snn.Encoder, img *tensor.Tensor, t int) (*tensor.Tensor, *spikeplane.Plane) {
	pl := &st.encPlane
	var x *tensor.Tensor
	switch ie := enc.(type) {
	case snn.IntoEncoder:
		if st.encT == nil || !tensor.SameShape(st.encT, img) {
			st.encT = tensor.New(img.Shape()...)
		}
		x = st.encT
		if pe, ok := ie.(snn.PlaneEncoder); ok {
			pe.EncodeIntoPlane(x, pl, img)
		} else {
			ie.EncodeInto(x, img)
			pl.Pack(x.Data())
		}
	default:
		x = enc.Encode(img)
		pl.Pack(x.Data())
	}
	if sh := env.shard; sh != nil {
		n := int64(pl.Count())
		sh.Stage(0).SpikesEmitted += n
		if sh.TraceEnabled() {
			sh.AddTrace(obs.TraceEvent{Timestep: t, Stage: 0, Layer: "input", Spikes: n})
		}
	}
	return x, pl
}

// exec runs one inference: T encoded timesteps through the spiking
// stages, then one pass through the continuous stages. ModeANN has no
// spiking stage and no timestep; ModeSNN has no continuous stage and
// reads its result from the read-out accumulator; ModeHybrid folds each
// timestep's boundary spikes into the AU and feeds its read-out to the
// continuous tail. Cancellation is checked between timesteps so a hung
// experiment is killable mid-window.
func (s *Session) exec(ctx context.Context, img *tensor.Tensor, env *execEnv, enc snn.Encoder, st *runState) (*RunResult, error) {
	res := &RunResult{}
	x := img
	for t := 0; t < s.Timesteps(); t++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var pl *spikeplane.Plane
		x, pl = s.encodeObs(env, st, enc, img, t)
		for i, hw := range s.stages[:s.cut] {
			var err error
			x, pl, err = s.stepStageObs(env, i, t, hw, st.stages[i], x, pl, res)
			if err != nil {
				return nil, err
			}
		}
		if st.au != nil {
			st.au.Accumulate(x)
		}
	}
	switch s.cfg.Mode {
	case ModeSNN:
		// The read-out stage integrates increments across timesteps; its
		// accumulator holds the final class potentials.
		out := runOutput(st)
		res.Output = out
		res.Prediction = out.ArgMax()
		return res, nil
	case ModeHybrid:
		// The recovered activations are in the source (unnormalized)
		// scale of the boundary; renormalize to [0,1] with λ so the
		// normalized weights of the remaining stages apply directly.
		st.auOut = st.au.ReadInto(st.auOut)
		st.auOut.ScaleInPlace(1 / s.lambda)
		x = st.auOut
	}
	x, err := s.runANN(ctx, env, st, x, res)
	if err != nil {
		return nil, err
	}
	res.Output = x.Clone()
	res.Prediction = x.ArgMax()
	return res, nil
}

// runOutput reads the final class potentials from the per-run read-out
// accumulator.
func runOutput(st *runState) *tensor.Tensor {
	if n := len(st.stages); n > 0 {
		if acc := st.stages[n-1].outAcc; acc != nil {
			return acc.Clone()
		}
	}
	return tensor.New(1)
}

// runOne executes a single inference with the given reserved streams,
// on the reference walk when ref is set. When the session carries a
// recorder, a production run fills a private counter shard and returns
// it alongside the result; the caller decides when (and whether) to
// merge it. A failed run's shard is discarded.
func (s *Session) runOne(ctx context.Context, input *tensor.Tensor, rs runStreams, ref bool) (*RunResult, *obs.RunRecord, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	env := &execEnv{hops: s.engineHops, ref: ref}
	if s.rec != nil && !ref {
		env.shard = obs.NewRunRecord(s.obsLayout, s.traceOn)
	}
	// The noise stream is reserved either way, so no stream position
	// moves, but only a chip whose reads draw (σ > 0) hands it to the
	// run: a generator kept only for fault injection must not cost a
	// noiseless chip its skips.
	if s.chip.noise != nil && s.chip.Cfg.ReadNoiseSigma > 0 {
		env.noise = rs.noise
	}
	// Skipping requires a nil read-noise stream: noise draws advance per
	// live column, so skipping a read would shift every later draw.
	// Without noise, skips are value-exact.
	env.skip = env.noise == nil && !ref
	var enc snn.Encoder
	if s.cfg.Mode != ModeANN {
		enc = s.cfg.sharedEnc
		if enc == nil {
			enc = s.cfg.encFactory(rs.enc)
		}
	}
	st := s.arena.get(s)
	st.reset()
	defer s.arena.put(st)
	res, err := s.exec(ctx, input, env, enc, st)
	if err != nil {
		return nil, nil, err
	}
	res.Crossbar = env.cross
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
	return s.runMerged(ctx, input, s.reserveStreams(1)[0])
}

// runMerged is the body of Run and RunReserved: one production run on
// the given streams, its shard merged into the recorder on success.
func (s *Session) runMerged(ctx context.Context, input *tensor.Tensor, rs runStreams) (*RunResult, error) {
	res, shard, err := s.runOne(ctx, input, rs, false)
	if err != nil {
		return nil, err
	}
	if shard != nil {
		if err := s.rec.MergeRun(shard); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// RunReference executes one inference on the reference walk, for tests
// and benchmarks that check the production walk against it. It runs the
// same stages as Run with no silent-stage or window skips and no
// timestep-repeat cache, and every crossbar read goes through the index
// path (EvaluateReadInto/MACReadInto). It reserves the next per-run
// streams exactly like Run, so two sessions compiled alike, one driven
// by Run and one by RunReference, return bitwise-identical outputs,
// predictions and spike counts. It records nothing to an attached
// observer and reports zero skip, packed-word and repeat counters.
func (s *Session) RunReference(ctx context.Context, input *tensor.Tensor) (*RunResult, error) {
	res, _, err := s.runOne(ctx, input, s.reserveStreams(1)[0], true)
	return res, err
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
	return s.runMerged(ctx, input, runStreams{enc: rs.Enc, noise: rs.Noise})
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
			res, shard, err := s.runOne(ctx, in, streams[i], false)
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
				res, shard, err := s.runOne(cctx, inputs[i], streams[i], false)
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
