package crossbar

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/rng"
)

// This file is the frozen read kernel of the session fast path. Once a
// session compiles (programming, fault injection, BIST/protect all
// done), the conductance planes are immutable for the life of the
// session, so everything macCompute re-derives per read — the rowMap/
// colMap line indirection, the level⁺−level⁻ differential, the ΔG
// scale, the dead-line masks — can be baked once into a flat row-major
// term plane. MACReadInto then runs an event-driven axpy over only the
// active rows: O(nnz·Cols) sequential memory traffic instead of
// O(Rows·Cols) pointer-chasing.
//
// The kernel is a pure cache: every result it produces is bitwise
// identical to the dense macCompute path (enforced by the differential
// fuzz tests in kernel_test.go), and a generation stamp invalidates it
// the moment any mutator touches levels, maps, dead lines or the
// retention clock. A stale kernel is never rebaked implicitly — reads
// may run on many goroutines, so the fast path silently falls back to
// the dense walk until the owner bakes again.

// readKernel is the baked read-path cache of one crossbar.
type readKernel struct {
	// gen is the crossbar generation the bake captured; the kernel is
	// valid only while it equals the crossbar's current generation.
	gen uint64
	// terms holds the per-pair differential conductance terms
	// float64(level⁺−level⁻)·ΔG in logical row-major order
	// (terms[row·Cols+col]), with the rowMap/colMap indirection folded
	// in. Rows routed to dead lines keep zero terms and are skipped via
	// rowDead — they must not be zero-summed, because adding a signed
	// zero can flip a −0.0 accumulator and break bitwise equality.
	terms []float64
	// rowDead / colDead are the dead-line masks in logical coordinates.
	rowDead, colDead []bool
	// rowLive is the bit-packed complement of rowDead (bit set = live
	// logical row), so active-row words intersect against it with a
	// word-AND instead of a per-row branch.
	rowLive []uint64
	// fullScale is the hoisted output divisor VRead·(States−1)·ΔG; it is
	// the same deterministic expression macCompute evaluates per column.
	fullScale float64
}

// BakeKernel (re)builds the frozen read kernel from the current
// programmed state. Call it when the conductances freeze — after
// programming, fault injection and repair are done — and again after any
// deliberate mutation. Baking never changes read results; it only makes
// MACReadInto/MACReadPacked take the sparse fast path while the kernel stays
// fresh.
func (c *Crossbar) BakeKernel() {
	states := c.P.States()
	deltaG := (c.P.GParallelUS - c.P.GAntiParallelUS) / float64(states-1)
	k := &readKernel{
		gen:       c.gen,
		terms:     make([]float64, c.Rows*c.Cols),
		rowDead:   make([]bool, c.Rows),
		colDead:   make([]bool, c.Cols),
		rowLive:   make([]uint64, (c.Rows+63)/64),
		fullScale: c.P.VReadMV * 1e-3 * float64(states-1) * deltaG,
	}
	for col := 0; col < c.Cols; col++ {
		if c.deadCol != nil && c.deadCol[c.colMap[col]] {
			k.colDead[col] = true
		}
	}
	for row := 0; row < c.Rows; row++ {
		pr := c.rowMap[row]
		if c.deadRow != nil && c.deadRow[pr] {
			k.rowDead[row] = true
			continue
		}
		k.rowLive[row>>6] |= 1 << uint(row&63)
		base := pr * c.physCols
		trow := k.terms[row*c.Cols : (row+1)*c.Cols]
		if c.levelPlus == nil {
			continue // a never-written array's terms stay zero
		}
		for col := range trow {
			idx := base + c.colMap[col]
			trow[col] = float64(c.levelPlus[idx]-c.levelMinus[idx]) * deltaG
		}
	}
	c.kern = k
}

// KernelFresh reports whether a baked kernel exists and still matches
// the crossbar's generation — i.e. whether MACReadInto currently takes the
// fast path.
func (c *Crossbar) KernelFresh() bool {
	return c.kern != nil && c.kern.gen == c.gen
}

// DropKernel discards the baked kernel, forcing the dense path.
func (c *Crossbar) DropKernel() { c.kern = nil }

// Generation returns the crossbar's mutation counter. Every mutator of
// read-visible state (levels, line maps, dead lines, the retention
// clock) bumps it, so two snapshots comparing equal prove the array has
// not been touched in between — the staleness check session pools use to
// keep serving replicas bitwise reproducible.
func (c *Crossbar) Generation() uint64 { return c.gen }

// invalidate bumps the crossbar generation, marking any baked kernel
// stale. Every mutator of levels, line maps, dead lines or the
// retention clock must call it.
func (c *Crossbar) invalidate() { c.gen++ }

// MACReadInto evaluates the same analog dot product as MAC without the
// wear side effects — no read disturb, no retention-clock interaction,
// no mutation of the array's shared counters — writing the Cols column
// sums into dst, so steady-state readers allocate nothing. Read-noise
// draws come from the caller's stream (nil disables noise) and activity
// is accumulated into the caller's stats (nil discards it), so any
// number of goroutines may read one programmed array concurrently, as
// long as nothing reprograms, ticks or injects faults into it meanwhile.
//
// active, when non-nil, must list exactly the indices of the non-zero
// input entries in increasing order (dead-row positions included — they
// still load the source line and count toward IR drop). nil makes
// MACReadInto scan the input itself. A wrong active list silently
// corrupts the result, so only pass lists derived from the same input
// slice.
//
// When a fresh kernel is baked (BakeKernel) the evaluation takes the
// event-driven fast path; results are bitwise identical either way.
//
//nebula:hotpath
func (c *Crossbar) MACReadInto(dst, input []float64, active []int, noise *rng.Rand, stats *Stats) error {
	if len(dst) != c.Cols {
		return fmt.Errorf("crossbar: destination length %d, want %d cols", len(dst), c.Cols)
	}
	var activeN int
	var currentSum float64
	var err error
	if k := c.kern; k != nil && k.gen == c.gen {
		activeN, currentSum, err = c.macKernel(k, dst, input, active, noise)
	} else {
		activeN, currentSum, err = c.macComputeInto(dst, input, noise)
	}
	if err != nil {
		return err
	}
	if stats != nil {
		stats.MACs++
		stats.ActiveRowSum += int64(activeN)
		stats.OutputCurrentUA += currentSum
	}
	return nil
}

// attenuation is the IR-drop drive factor for activeN driven rows.
func (c *Crossbar) attenuation(activeN int) float64 {
	if c.Cfg.IRDropAlpha > 0 && c.Rows > 0 {
		return 1 / (1 + c.Cfg.IRDropAlpha*float64(activeN)/float64(c.Rows))
	}
	return 1
}

// driftFactor is the retention decay of the stored polarization.
func (c *Crossbar) driftFactor() float64 {
	if c.Cfg.DriftTauSteps > 0 && c.age > 0 {
		return math.Exp(-float64(c.age) / c.Cfg.DriftTauSteps)
	}
	return 1
}

// macKernel is the baked fast path of MACReadInto: it folds the active
// rows (the list, or a scan of the input) into a packed row mask and
// runs the kernel read MACReadPacked runs.
func (c *Crossbar) macKernel(k *readKernel, dst, input []float64, active []int, noise *rng.Rand) (activeN int, currentSum float64, err error) {
	if len(input) != c.Rows {
		return 0, 0, fmt.Errorf("crossbar: input length %d, want %d rows", len(input), c.Rows)
	}
	// The simulator's arrays are mapping.M = 128 rows; the stack buffer
	// covers up to 512.
	var buf [8]uint64
	mask := buf[:0]
	if nw := (c.Rows + 63) / 64; nw <= len(buf) {
		mask = buf[:nw]
	} else {
		//nebula:coldpath arrays beyond 512 rows
		mask = make([]uint64, nw)
	}
	if active != nil {
		for _, row := range active {
			mask[row>>6] |= 1 << uint(row&63)
		}
	} else {
		for row, v := range input {
			if v != 0 {
				mask[row>>6] |= 1 << uint(row&63)
			}
		}
	}
	activeN, currentSum = k.read(c, dst, input, mask, noise)
	return activeN, currentSum, nil
}

// read is the kernel read both MACReadInto and MACReadPacked run, for
// the rows set in mask (bit i of word i/64 for row i) and the leading
// len(dst) columns. It returns the active-row count — the popcount of
// mask, dead rows included, since they still load the source line and
// count toward IR drop — and the summed |I| of the computed columns.
//
// Accumulate: per live active row, in increasing order, dst gets the
// row's drive input[row]·atten·VRead·1e-3 times its conductance terms,
// with the same operation grouping (((v·atten)·VRead)·1e-3)·g as the
// dense walk. Dead rows are masked out, never zero-summed: adding a
// signed zero can flip a −0.0 accumulator. Re-slicing the term row to
// len(dst) lets the compiler drop the per-column bounds checks; the
// 4-wide unroll breaks the store-to-load chain across independent
// columns without changing any column's own accumulation order.
//
// Finalize: column by column in index order, drift scales the stored
// polarization, then read noise draws once per live column (so the
// draws stay in the dense path's stream order), and dead sense lines
// read 0 and draw nothing, exactly as macComputeInto skips them.
//
//nebula:hotpath
func (k *readKernel) read(c *Crossbar, dst, input []float64, mask []uint64, noise *rng.Rand) (activeN int, currentSum float64) {
	for _, w := range mask {
		activeN += bits.OnesCount64(w)
	}
	atten, vread := c.attenuation(activeN), c.P.VReadMV
	clear(dst)
	nd := len(dst)
	cols := len(k.colDead)
	for wi, w := range mask {
		for w &= k.rowLive[wi]; w != 0; w &= w - 1 {
			row := wi<<6 + bits.TrailingZeros64(w)
			vv := input[row] * atten * vread * 1e-3
			trow := k.terms[row*cols:]
			trow = trow[:nd]
			col := 0
			for ; col+3 < nd; col += 4 {
				dst[col] += vv * trow[col]
				dst[col+1] += vv * trow[col+1]
				dst[col+2] += vv * trow[col+2]
				dst[col+3] += vv * trow[col+3]
			}
			for ; col < nd; col++ {
				dst[col] += vv * trow[col]
			}
		}
	}
	drift := c.driftFactor()
	sigma := c.Cfg.ReadNoiseSigma
	for col := range dst {
		if k.colDead[col] {
			dst[col] = 0
			continue
		}
		iDiff := dst[col] * drift
		if sigma > 0 && noise != nil {
			iDiff *= 1 + sigma*noise.NormFloat64()
		}
		currentSum += math.Abs(iDiff)
		dst[col] = iDiff / k.fullScale * c.wmax
	}
	return activeN, currentSum
}

// ErrStaleKernel is returned by MACReadPacked when no fresh baked
// kernel exists. Unlike MACReadInto, the packed path has no dense
// fallback of its own — the packed mask cannot drive macCompute's
// full-width walk — so the caller must fall back (typically by
// materializing indices and using MACReadInto).
var ErrStaleKernel = errors.New("crossbar: read kernel stale or missing")

// MACReadPacked is the event-driven read: the active rows arrive as a
// bit-packed word mask instead of an index list, and both buffers may
// be trimmed to the logically mapped extent of the array.
//
// Contract, looser than MACReadInto in two ways and stricter in one:
//
//   - len(input) may be ≤ Rows: rows at or beyond len(input) are
//     treated as silent, so callers pass the unpadded window slice.
//   - len(dst) may be ≤ Cols: only the leading len(dst) columns are
//     computed. Per-column sums are independent, so each computed
//     column is bitwise identical to the same column of a full-width
//     read. Stats.OutputCurrentUA consequently sums only those
//     columns; on a faultless array the unmapped tail reads exactly
//     zero and the total is unchanged, but stuck faults parked in
//     unmapped columns would have contributed |I| in the dense walk
//     (DESIGN.md §15). Read-noise draws are likewise per computed
//     column, so trimmed reads consume a different stream count;
//     noisy callers pass the full Cols width, which draws exactly
//     what MACReadInto draws, in the same order.
//   - mask must have no bit set at or beyond len(input); bit i set
//     iff input[i] != 0. Dead-row bits stay set (they count toward
//     IR drop, exactly like MACReadInto's active list). Trailing
//     words may be omitted entirely.
//
// The accumulation visits rows in increasing order with the same
// operation grouping as the dense walk, so results are bitwise
// identical (±0.0 column sign aside when a trimmed silent read skips
// the zero-summing the dense path performs — the engine never
// consumes the sign of a zero).
//
//nebula:hotpath
func (c *Crossbar) MACReadPacked(dst, input []float64, mask []uint64, noise *rng.Rand, stats *Stats) error {
	k := c.kern
	if k == nil || k.gen != c.gen {
		return ErrStaleKernel
	}
	if len(dst) > c.Cols {
		return fmt.Errorf("crossbar: destination length %d exceeds %d cols", len(dst), c.Cols)
	}
	if len(input) > c.Rows {
		return fmt.Errorf("crossbar: input length %d exceeds %d rows", len(input), c.Rows)
	}
	nw := (len(input) + 63) / 64
	if len(mask) < nw {
		nw = len(mask)
	}
	activeN, currentSum := k.read(c, dst, input, mask[:nw], noise)
	if stats != nil {
		stats.MACs++
		stats.ActiveRowSum += int64(activeN)
		stats.OutputCurrentUA += currentSum
	}
	return nil
}
