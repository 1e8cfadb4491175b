// Package crossbar models the "All-Spin" neuromorphic crossbar array of
// Fig. 3: DW-MTJ synapses at the junctions perform a parallel analog
// dot-product by Kirchhoff current summation along the source lines, and
// the summed currents drive DW-MTJ neurons directly (no current-to-voltage
// conversion, §II-C).
//
// Signed weights are realized as differential device pairs (G⁺ − G⁻), so
// the anti-parallel baseline conductance cancels between the two columns.
// The model includes the two dominant analog non-idealities the paper's
// design section discusses: source-line IR drop (which grows with the
// number of simultaneously active rows) and read-current noise.
//
// The array also carries the device-level reliability model consumed by
// package reliability: persistent per-device fault records (stuck and
// weak devices survive reprogramming), dead row/column lines, read
// disturb, retention drift, and spare lines reachable through a logical→
// physical line indirection. See faults.go.
package crossbar

import (
	"fmt"
	"math"

	"repro/internal/device"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Stats accumulates activity statistics used by the energy model.
type Stats struct {
	// MACs counts crossbar evaluations (one per Step over all columns).
	MACs int64
	// ActiveRowSum accumulates the number of driven rows per evaluation.
	ActiveRowSum int64
	// OutputCurrentUA accumulates |I| over columns and evaluations.
	OutputCurrentUA float64
	// ProgramEnergyFJ is the total synapse programming energy.
	ProgramEnergyFJ float64
}

// Diff returns the activity accumulated since a prior snapshot of the
// same Stats — the per-stage delta the observability layer attributes
// while one run funnels every crossbar read into a single Stats.
func (s Stats) Diff(prev Stats) Stats {
	return Stats{
		MACs:            s.MACs - prev.MACs,
		ActiveRowSum:    s.ActiveRowSum - prev.ActiveRowSum,
		OutputCurrentUA: s.OutputCurrentUA - prev.OutputCurrentUA,
		ProgramEnergyFJ: s.ProgramEnergyFJ - prev.ProgramEnergyFJ,
	}
}

// Config holds the crossbar's analog non-ideality knobs.
type Config struct {
	// IRDropAlpha scales the source-line voltage droop: each row's
	// effective drive is multiplied by 1/(1 + IRDropAlpha·activeFrac).
	// Zero disables the effect.
	IRDropAlpha float64
	// ReadNoiseSigma is the relative standard deviation of multiplicative
	// read noise on column currents. Zero disables noise.
	ReadNoiseSigma float64
	// ProgramVariationLevels is the standard deviation, in device levels,
	// of programming error: each synapse lands within a few pinning sites
	// of its target (device mismatch, §IV-D). Zero disables it.
	ProgramVariationLevels float64
	// SpareRows and SpareCols provision redundant physical lines per array
	// for dead-line remapping by the reliability layer. Zero disables
	// sparing and keeps the array purely logical.
	SpareRows, SpareCols int
	// ReadDisturbProb is the per-device per-evaluation probability that a
	// read pulse nudges a stored domain wall one pinning site toward AP
	// (a transient retention upset). Requires a noise generator; zero
	// disables the effect.
	ReadDisturbProb float64
	// DriftTauSteps is the retention time constant in elapsed timesteps
	// (advanced by Tick): read currents decay by exp(-age/τ) as the
	// programmed walls relax toward their unpinned rest state. Zero
	// disables drift.
	DriftTauSteps float64
}

// Crossbar is an R×C array of differential DW-MTJ synapse pairs.
type Crossbar struct {
	Rows, Cols int
	P          device.Params
	Cfg        Config

	// Physical geometry: the logical lines plus Cfg's spare lines. The
	// rowMap/colMap indirection routes each logical line to a physical
	// line; it is the identity until a remap consumes a spare.
	physRows, physCols int
	rowMap, colMap     []int

	// levelPlus/levelMinus hold the stored device levels, indexed
	// physRow*physCols+physCol. targetPlus/targetMinus hold the levels
	// the last Program intended — what BIST verifies against and what
	// write-verify rewrites toward. The four planes are allocated
	// together on the first write (ensurePlanes); all nil means a
	// never-written array, every level zero — most arrays of a
	// super-tile are spares that are never programmed.
	levelPlus, levelMinus   []int16
	targetPlus, targetMinus []int16

	// faultPlus/faultMinus record injected device faults (allocated
	// lazily on first injection); deadRow/deadCol mark failed physical
	// lines. spareRowsFree/spareColsFree list physical spares not yet
	// consumed by a remap; the free lists are pure allocator
	// bookkeeping — which spares remain does not affect what a read
	// observes until a remap rewrites the line maps.
	faultPlus, faultMinus []faultRec
	deadRow, deadCol      []bool
	//nebula:genstamp-exempt spare-line free lists are allocator state, not read-visible
	spareRowsFree, spareColsFree []int

	// age counts elapsed timesteps since the last full (re)programming,
	// driving retention drift.
	age int64

	// wmax maps level States-1 to weight magnitude wmax.
	wmax float64
	// stats accumulates activity counters; readers fold deltas into
	// their own Stats, so the shared counters never feed a read result.
	//nebula:genstamp-exempt activity accounting, not read-visible state
	stats Stats
	noise *rng.Rand

	// gen counts mutations of the read-visible state (levels, line maps,
	// dead lines, retention clock); kern is the frozen read kernel baked
	// against one generation. A kernel whose generation falls behind is
	// stale and the read path falls back to the dense walk. See kernel.go.
	gen uint64
	//nebula:genstamp-exempt the kernel is the cache keyed by gen, not the state it caches
	kern *readKernel
}

// New allocates an unprogrammed crossbar.
func New(rows, cols int, p device.Params, cfg Config, noise *rng.Rand) *Crossbar {
	physRows, physCols := rows+cfg.SpareRows, cols+cfg.SpareCols
	c := &Crossbar{
		Rows: rows, Cols: cols, P: p, Cfg: cfg,
		physRows: physRows, physCols: physCols,
		rowMap: make([]int, rows), colMap: make([]int, cols),
		noise: noise,
	}
	for i := range c.rowMap {
		c.rowMap[i] = i
	}
	for i := range c.colMap {
		c.colMap[i] = i
	}
	for s := rows; s < physRows; s++ {
		c.spareRowsFree = append(c.spareRowsFree, s)
	}
	for s := cols; s < physCols; s++ {
		c.spareColsFree = append(c.spareColsFree, s)
	}
	return c
}

// ensurePlanes allocates the level and target planes of a never-written
// array; every mutator that stores a level calls it first.
//
//nebula:genstamp-exempt materializing all-zero planes changes no level a read observes
func (c *Crossbar) ensurePlanes() {
	if c.levelPlus != nil {
		return
	}
	n := c.physRows * c.physCols
	slab := make([]int16, 4*n)
	c.levelPlus, c.levelMinus = slab[:n:n], slab[n:2*n:2*n]
	c.targetPlus, c.targetMinus = slab[2*n:3*n:3*n], slab[3*n:]
}

// Program loads a rows×cols weight matrix. Weights are clipped to ±wmax
// and quantized to the device's discrete levels; positive weights program
// the plus device, negative the minus device. Programming energy is
// accounted per level step moved. Recorded device faults persist: a stuck
// or weak device ignores the write and keeps its fault level, so
// reprogramming does not silently heal injected defects.
func (c *Crossbar) Program(w *tensor.Tensor, wmax float64) error {
	if w.NDim() != 2 || w.Dim(0) != c.Rows || w.Dim(1) != c.Cols {
		return fmt.Errorf("crossbar: weights %v do not fit %d×%d array", w.Shape(), c.Rows, c.Cols)
	}
	if wmax <= 0 {
		return fmt.Errorf("crossbar: wmax must be positive")
	}
	c.invalidate()
	c.ensurePlanes()
	c.wmax = wmax
	states := c.P.States()
	stepEnergy := c.P.WriteEnergyFJ / float64(states-1)
	wd := w.Data()
	for r := 0; r < c.Rows; r++ {
		pr := c.rowMap[r]
		for col := 0; col < c.Cols; col++ {
			v := wd[r*c.Cols+col]
			mag := math.Abs(v)
			if mag > wmax {
				mag = wmax
			}
			level := int(math.Round(mag / wmax * float64(states-1)))
			written := level
			if c.Cfg.ProgramVariationLevels > 0 && c.noise != nil {
				written += int(math.Round(c.Cfg.ProgramVariationLevels * c.noise.NormFloat64()))
				if written < 0 {
					written = 0
				}
				if written > states-1 {
					written = states - 1
				}
			}
			var tp, tm, ap, am int
			if v >= 0 {
				tp, ap = level, written
			} else {
				tm, am = level, written
			}
			pi := pr*c.physCols + c.colMap[col]
			c.targetPlus[pi], c.targetMinus[pi] = int16(tp), int16(tm)
			ap = c.appliedLevel(pi, true, ap)
			am = c.appliedLevel(pi, false, am)
			c.stats.ProgramEnergyFJ += math.Abs(float64(int16(ap)-c.levelPlus[pi])) * stepEnergy
			c.stats.ProgramEnergyFJ += math.Abs(float64(int16(am)-c.levelMinus[pi])) * stepEnergy
			c.levelPlus[pi] = int16(ap)
			c.levelMinus[pi] = int16(am)
		}
	}
	c.age = 0
	return nil
}

// EffectiveWeight returns the programmed (quantized) weight at (row, col).
func (c *Crossbar) EffectiveWeight(row, col int) float64 {
	if c.levelPlus == nil {
		return 0
	}
	states := c.P.States()
	i := c.rowMap[row]*c.physCols + c.colMap[col]
	return float64(c.levelPlus[i]-c.levelMinus[i]) / float64(states-1) * c.wmax
}

// MAC drives the rows with input levels in [0, 1] (bit-line voltage as a
// fraction of VRead) and returns the per-column dot products in weight
// units, as thresholded by the neuron units. Column read currents are
// derived from the device conductances, so quantization, IR drop, read
// noise, dead lines, retention drift and read disturb all act on the
// result.
//
// MAC models wear: every call may disturb stored walls and mutates the
// array's shared activity counters, so it must not be called concurrently.
// Sessions that freeze the programmed conductances use MACRead instead.
func (c *Crossbar) MAC(input []float64) ([]float64, error) {
	out, active, currentSum, err := c.macCompute(input, c.noise)
	if err != nil {
		return nil, err
	}
	c.applyReadDisturb(active)
	c.stats.MACs++
	c.stats.ActiveRowSum += int64(active)
	c.stats.OutputCurrentUA += currentSum
	return out, nil
}

// MACRead evaluates the same analog dot product as MAC without the wear
// side effects: no read disturb, no retention-clock interaction, and no
// mutation of the array's shared counters. Read-noise draws come from the
// caller's stream (nil disables noise) and activity is accumulated into
// the caller's stats (nil discards it), so any number of goroutines may
// call MACRead against the same programmed array concurrently, as long as
// nothing reprograms, ticks or injects faults into it meanwhile.
//
// When a fresh kernel is baked (BakeKernel) the evaluation takes the
// event-driven fast path; results are bitwise identical either way.
func (c *Crossbar) MACRead(input []float64, noise *rng.Rand, stats *Stats) ([]float64, error) {
	out := make([]float64, c.Cols)
	if err := c.MACReadInto(out, input, nil, noise, stats); err != nil {
		return nil, err
	}
	return out, nil
}

// macCompute is the dense analog evaluation shared by MAC and the
// kernel-free read path. It reads only programmed state (levels, line
// maps, age) and the supplied noise stream, never the receiver's mutable
// wear state.
func (c *Crossbar) macCompute(input []float64, noise *rng.Rand) (out []float64, active int, currentSum float64, err error) {
	out = make([]float64, c.Cols)
	active, currentSum, err = c.macComputeInto(out, input, noise)
	if err != nil {
		return nil, 0, 0, err
	}
	return out, active, currentSum, nil
}

// macComputeInto is macCompute writing into a caller-provided buffer of
// length Cols. Every element of dst is assigned.
func (c *Crossbar) macComputeInto(dst, input []float64, noise *rng.Rand) (active int, currentSum float64, err error) {
	if len(input) != c.Rows {
		return 0, 0, fmt.Errorf("crossbar: input length %d, want %d rows", len(input), c.Rows)
	}
	for _, v := range input {
		if v != 0 {
			active++
		}
	}
	atten := 1.0
	if c.Cfg.IRDropAlpha > 0 && c.Rows > 0 {
		atten = 1 / (1 + c.Cfg.IRDropAlpha*float64(active)/float64(c.Rows))
	}
	drift := 1.0
	if c.Cfg.DriftTauSteps > 0 && c.age > 0 {
		drift = math.Exp(-float64(c.age) / c.Cfg.DriftTauSteps)
	}
	states := c.P.States()
	deltaG := (c.P.GParallelUS - c.P.GAntiParallelUS) / float64(states-1) // µS per level
	for col := 0; col < c.Cols; col++ {
		pc := c.colMap[col]
		if c.deadCol != nil && c.deadCol[pc] {
			// A dead sense line contributes no current; the column reads 0.
			dst[col] = 0
			continue
		}
		// Differential column current: Σ V_i·ΔG·(level⁺−level⁻). A
		// never-written array stores no levels and sources no current.
		var iDiff float64 // in µA
		for row := 0; row < c.Rows && c.levelPlus != nil; row++ {
			v := input[row]
			if v == 0 {
				continue
			}
			pr := c.rowMap[row]
			if c.deadRow != nil && c.deadRow[pr] {
				continue
			}
			idx := pr*c.physCols + pc
			g := float64(c.levelPlus[idx]-c.levelMinus[idx]) * deltaG
			iDiff += v * atten * c.P.VReadMV * 1e-3 * g // mV·µS → µA·1e-3... see scale below
		}
		// Scale: (V in volts)·(G in µS) = µA. Drift scales the stored
		// polarization uniformly before the read noise is applied.
		iDiff *= drift
		if c.Cfg.ReadNoiseSigma > 0 && noise != nil {
			iDiff *= 1 + c.Cfg.ReadNoiseSigma*noise.NormFloat64()
		}
		currentSum += math.Abs(iDiff)
		// Convert current back to weight units: a full-scale weight wmax
		// at input 1.0 produces V·(States−1)·ΔG.
		fullScale := c.P.VReadMV * 1e-3 * float64(states-1) * deltaG
		dst[col] = iDiff / fullScale * c.wmax
	}
	return active, currentSum, nil
}

// Stats returns a copy of the accumulated activity counters.
func (c *Crossbar) Stats() Stats { return c.stats }

// ResetStats clears the activity counters (not the programmed weights).
func (c *Crossbar) ResetStats() { c.stats = Stats{} }

// Utilization returns the fraction of synapses with a non-zero programmed
// level, the quantity behind the paper's morphable-tile motivation.
func (c *Crossbar) Utilization() float64 {
	used := 0
	for r := 0; r < c.Rows && c.levelPlus != nil; r++ {
		for col := 0; col < c.Cols; col++ {
			i := c.rowMap[r]*c.physCols + c.colMap[col]
			if c.levelPlus[i] != 0 || c.levelMinus[i] != 0 {
				used++
			}
		}
	}
	return float64(used) / float64(c.Rows*c.Cols)
}

// FaultMode selects the stuck state of an injected device fault.
type FaultMode int

// Fault modes: a stuck-AP device reads as minimum conductance (weight
// contribution 0 after differential cancellation), a stuck-P device as
// maximum.
const (
	StuckAP FaultMode = iota
	StuckP
)

// InjectStuckFaults forces a random fraction of synapse devices into a
// permanently stuck conductance state, modelling fabrication defects and
// endurance failures. Both devices of a differential pair are candidates
// independently; spare devices are as fallible as primary ones. It
// returns the number of devices faulted. Faults are recorded per device
// and re-applied by every subsequent Program call, so a reprogrammed
// array keeps its defects.
func (c *Crossbar) InjectStuckFaults(r *rng.Rand, fraction float64, mode FaultMode) int {
	if r == nil || fraction <= 0 {
		return 0
	}
	c.invalidate()
	c.ensureFaults()
	c.ensurePlanes()
	states := c.P.States()
	stuck := 0
	if mode == StuckP {
		stuck = states - 1
	}
	kind := kindStuckAP
	if mode == StuckP {
		kind = kindStuckP
	}
	n := 0
	for i := range c.levelPlus {
		if r.Bernoulli(fraction) {
			c.faultPlus[i] = faultRec{kind: kind, level: int16(stuck)}
			c.levelPlus[i] = int16(stuck)
			n++
		}
		if r.Bernoulli(fraction) {
			c.faultMinus[i] = faultRec{kind: kind, level: int16(stuck)}
			c.levelMinus[i] = int16(stuck)
			n++
		}
	}
	return n
}
