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
// session, so everything macComputeInto re-derives per read — the rowMap/
// colMap line indirection, the level⁺−level⁻ differential, the dead-line
// masks — can be baked once into flat row-major planes. The reads then
// run event-driven over only the active rows: O(nnz·Cols) sequential
// memory traffic instead of O(Rows·Cols) pointer-chasing.
//
// Every read sums weights before it scales them: a column's level sum
// acc = Σ v·(level⁺−level⁻) over the live active rows, then
// iDiff = acc·(atten·VRead·1e-3·ΔG)·drift. A binary read (every active
// v exactly 1.0) makes acc an exact integer whatever the row order, which
// lets MACReadPacked add packed 16-bit level lanes, one 64-bit add per
// four columns, instead of one float multiply-add per column.
//
// The kernel is a pure cache: every result it produces is bitwise
// identical to the dense macComputeInto path (enforced by the differential
// fuzz tests in kernel_test.go), and a generation stamp invalidates it
// the moment any mutator touches levels, maps, dead lines or the
// retention clock. A stale kernel is never rebaked implicitly — reads
// may run on many goroutines, so the fast path silently falls back to
// the dense walk until the owner bakes again.

// laneBits is the width of one packed column lane; a uint64 lane word
// holds lanesPerWord columns.
const (
	laneBits     = 16
	lanesPerWord = 64 / laneBits
	laneMask     = 1<<laneBits - 1
)

// oneBits is the bit pattern of 1.0, the only active value a lane read
// accepts.
var oneBits = math.Float64bits(1)

// readKernel is the baked read-path cache of one crossbar.
type readKernel struct {
	// gen is the crossbar generation the bake captured; the kernel is
	// valid only while it equals the crossbar's current generation.
	gen uint64
	// diffs32 holds the per-pair level differences level⁺−level⁻ in
	// logical row-major order (diffs32[row·Cols+col]), with the
	// rowMap/colMap indirection folded in. float32 holds every int16
	// difference exactly. Rows routed to dead lines keep zero entries
	// and are skipped via rowLive — they must not be zero-summed,
	// because adding a signed zero can flip a −0.0 accumulator and
	// break bitwise equality. Graded reads add v·diff per column.
	// diffs64 is the same plane as float64, baked instead of diffs32
	// and lanes for arrays that read graded planes only
	// (BakeGradedKernel): it costs twice the bytes of diffs32 but saves
	// the float32 conversion on every element a graded read adds.
	diffs32 []float32
	diffs64 []float64
	// lanes holds the same differences biased to diff+bias ≥ 0 in
	// laneBits-wide lanes, lanesPerWord columns per word: row r's word
	// j (lanes[r·laneWords+j]) carries columns 4j..4j+3, column 4j+i
	// in bits [16i, 16i+16). Binary reads add whole words; lanes is nil
	// for a graded kernel and when a full-array sum could carry out of a
	// lane (Rows·2·bias ≥ 2¹⁶), which sends every read down the diffs path.
	lanes     []uint64
	laneWords int
	bias      int
	// rowDead / colDead are the dead-line masks in logical coordinates.
	rowDead, colDead []bool
	// rowLive is the bit-packed complement of rowDead (bit set = live
	// logical row), so active-row words intersect against it with a
	// word-AND instead of a per-row branch.
	rowLive []uint64
	// deltaG and fullScale are the hoisted level step ΔG and output
	// divisor VRead·(States−1)·ΔG; they are the same deterministic
	// expressions macComputeInto evaluates.
	deltaG, fullScale float64
}

// BakeKernel (re)builds the frozen read kernel from the current
// programmed state. Call it when the conductances freeze — after
// programming, fault injection and repair are done — and again after any
// deliberate mutation. Baking never changes read results; it only makes
// MACReadInto/MACReadPacked take the sparse fast path while the kernel stays
// fresh. The kernel carries a float32 diffs plane for graded reads and,
// within the lane guard, a lane plane for binary ones.
func (c *Crossbar) BakeKernel() { c.bake(false) }

// BakeGradedKernel is BakeKernel for an array that reads graded planes
// only, such as an ANN core's: it bakes a float64 diffs plane and no
// lane plane, which reads graded planes faster than the float32 plane.
// A binary read of such a kernel takes the float path; results are
// bitwise identical either way.
func (c *Crossbar) BakeGradedKernel() { c.bake(true) }

// bake builds the kernel; graded selects the float64 plane without
// lanes.
func (c *Crossbar) bake(graded bool) {
	states := c.P.States()
	bias := states - 1
	k := &readKernel{
		gen:       c.gen,
		bias:      bias,
		rowDead:   make([]bool, c.Rows),
		colDead:   make([]bool, c.Cols),
		rowLive:   make([]uint64, (c.Rows+63)/64),
		deltaG:    c.deltaG(),
		fullScale: c.fullScale(),
	}
	switch {
	case graded:
		k.diffs64 = make([]float64, c.Rows*c.Cols)
	case c.Rows*2*bias < 1<<laneBits:
		k.laneWords = (c.Cols + lanesPerWord - 1) / lanesPerWord
		k.lanes = make([]uint64, c.Rows*k.laneWords)
		fallthrough
	default:
		k.diffs32 = make([]float32, c.Rows*c.Cols)
	}
	for col := 0; col < c.Cols; col++ {
		if c.deadCol != nil && c.deadCol[c.colMap[col]] {
			k.colDead[col] = true
		}
	}
	lanes, lw := k.lanes, k.laneWords
	for row := 0; row < c.Rows; row++ {
		pr := c.rowMap[row]
		if c.deadRow != nil && c.deadRow[pr] {
			k.rowDead[row] = true
			continue
		}
		k.rowLive[row>>6] |= 1 << uint(row&63)
		var lp, lm []int16 // a never-written array's differences stay zero
		if c.levelPlus != nil {
			base := pr * c.physCols
			lp, lm = c.levelPlus[base:base+c.physCols], c.levelMinus[base:base+c.physCols]
		}
		switch {
		case graded:
			fillDiffs(k.diffs64[row*c.Cols:(row+1)*c.Cols], c.colMap, lp, lm)
		case lanes != nil:
			fillLanes(k.diffs32[row*c.Cols:(row+1)*c.Cols], lanes[row*lw:(row+1)*lw], c.colMap, lp, lm, bias)
		default:
			fillDiffs(k.diffs32[row*c.Cols:(row+1)*c.Cols], c.colMap, lp, lm)
		}
	}
	c.kern = k
}

// fillDiffs writes one row's level differences lp[pc]−lm[pc] through
// the column map; nil levels leave the row zero.
func fillDiffs[T float32 | float64](drow []T, colMap []int, lp, lm []int16) {
	if lp == nil {
		return
	}
	drow = drow[:len(colMap)]
	for col, pc := range colMap {
		drow[col] = T(lp[pc] - lm[pc])
	}
}

// fillLanes is fillDiffs that also packs the row's lane words: column
// col's difference, biased by bias, lands in word col/4, bits
// [16·(col%4), 16·(col%4)+16). Four columns go per step, so each lane
// word is assembled in a register and stored once.
func fillLanes(drow []float32, lrow []uint64, colMap []int, lp, lm []int16, bias int) {
	b := uint64(bias)
	if lp == nil {
		for j := range lrow {
			lrow[j] = b | b<<laneBits | b<<(2*laneBits) | b<<(3*laneBits)
		}
		if tail := len(colMap) % lanesPerWord; tail != 0 {
			lrow[len(lrow)-1] &= 1<<(laneBits*uint(tail)) - 1
		}
		return
	}
	drow = drow[:len(colMap)]
	col := 0
	for ; col+lanesPerWord <= len(colMap); col += lanesPerWord {
		cm := colMap[col : col+lanesPerWord : col+lanesPerWord]
		d0, d1 := lp[cm[0]]-lm[cm[0]], lp[cm[1]]-lm[cm[1]]
		d2, d3 := lp[cm[2]]-lm[cm[2]], lp[cm[3]]-lm[cm[3]]
		dr := drow[col : col+lanesPerWord : col+lanesPerWord]
		dr[0], dr[1], dr[2], dr[3] = float32(d0), float32(d1), float32(d2), float32(d3)
		lrow[col/lanesPerWord] = (uint64(int64(d0)) + b) | (uint64(int64(d1))+b)<<laneBits |
			(uint64(int64(d2))+b)<<(2*laneBits) | (uint64(int64(d3))+b)<<(3*laneBits)
	}
	for l := 0; col+l < len(colMap); l++ {
		d := lp[colMap[col+l]] - lm[colMap[col+l]]
		drow[col+l] = float32(d)
		lrow[col/lanesPerWord] |= (uint64(int64(d)) + b) << (laneBits * uint(l))
	}
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

// MACReadInto drives the rows with input levels in [0, 1] and writes the
// Cols analog column sums, in weight units, into dst, so steady-state
// readers allocate nothing. A read mutates nothing on the array. Read-noise
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
// Either way it adds the rows as floats, never as level lanes, even on a
// binary input: it is the read RunReference goes through, so it stays an
// independent check of MACReadPacked's lane sum.
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

// deltaG is the conductance step between adjacent levels, in µS.
func (c *Crossbar) deltaG() float64 {
	return (c.P.GParallelUS - c.P.GAntiParallelUS) / float64(c.P.States()-1)
}

// fullScale is the current a full-scale weight wmax produces at input
// 1.0, V·(States−1)·ΔG: the divisor that converts read current back to
// weight units.
func (c *Crossbar) fullScale() float64 {
	return c.P.VReadMV * 1e-3 * float64(c.P.States()-1) * c.deltaG()
}

// readScale converts a column's level sum into read current (µA) for
// activeN driven rows: the IR-drop-attenuated row drive times the
// conductance step deltaG. (V in volts)·(G in µS) = µA.
func (c *Crossbar) readScale(activeN int, deltaG float64) float64 {
	return c.attenuation(activeN) * c.P.VReadMV * 1e-3 * deltaG
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
	activeN, currentSum = k.read(c, dst, input, mask, noise, false)
	return activeN, currentSum, nil
}

// read is the kernel read both MACReadInto and MACReadPacked run, for
// the rows set in mask (bit i of word i/64 for row i) and the leading
// len(dst) columns. It returns the active-row count — the popcount of
// mask, dead rows included, since they still load the source line and
// count toward IR drop — and the summed |I| of the computed columns.
//
// Sum: dst gets each column's level sum Σ v·(level⁺−level⁻) over the
// live active rows. When lanes is set, the kernel has a lane plane and
// every live active input is exactly 1.0, the sum is the integer lane
// sum (sumLanes); otherwise the rows are added in increasing order from
// whichever diffs plane the kernel holds (sumRows), in the dense walk's
// order. Both give the same exact integer on a binary read, so the
// choice never shows.
//
// Finalize: column by column in index order, the sum is scaled to a
// current, acc·(atten·VRead·1e-3·ΔG)·drift, then read noise draws once
// per live column (so the draws stay in the dense path's stream order),
// and dead sense lines read 0 and draw nothing, exactly as
// macComputeInto skips them.
//
//nebula:hotpath
func (k *readKernel) read(c *Crossbar, dst, input []float64, mask []uint64, noise *rng.Rand, lanes bool) (activeN int, currentSum float64) {
	for _, w := range mask {
		activeN += bits.OnesCount64(w)
	}
	switch {
	case lanes && k.lanes != nil && k.sumLanes(dst, input, mask):
	case k.diffs64 != nil:
		sumRows(dst, input, mask, k.rowLive, k.diffs64, len(k.colDead))
	default:
		sumRows(dst, input, mask, k.rowLive, k.diffs32, len(k.colDead))
	}
	scale, drift := c.readScale(activeN, k.deltaG), c.driftFactor()
	sigma := c.Cfg.ReadNoiseSigma
	for col := range dst {
		if k.colDead[col] {
			dst[col] = 0
			continue
		}
		iDiff := dst[col] * scale * drift
		if sigma > 0 && noise != nil {
			iDiff *= 1 + sigma*noise.NormFloat64()
		}
		currentSum += math.Abs(iDiff)
		dst[col] = iDiff / k.fullScale * c.wmax
	}
	return activeN, currentSum
}

// sumRows writes dst[col] = Σ input[row]·diff[row][col] over the live
// active rows of a cols-wide diffs plane, added in increasing row order
// as the dense walk adds them. Dead rows are
// masked out, never zero-summed: adding a signed zero can flip a −0.0
// accumulator. Re-slicing the diffs row to len(dst) lets the compiler
// drop the per-column bounds checks; the 4-wide unroll breaks the
// store-to-load chain across independent columns without changing any
// column's own accumulation order.
//
//nebula:hotpath
func sumRows[T float32 | float64](dst, input []float64, mask, rowLive []uint64, diffs []T, cols int) {
	clear(dst)
	nd := len(dst)
	for wi, w := range mask {
		for w &= rowLive[wi]; w != 0; w &= w - 1 {
			row := wi<<6 + bits.TrailingZeros64(w)
			v := input[row]
			drow := diffs[row*cols:]
			drow = drow[:nd]
			col := 0
			for ; col+3 < nd; col += 4 {
				dst[col] += v * float64(drow[col])
				dst[col+1] += v * float64(drow[col+1])
				dst[col+2] += v * float64(drow[col+2])
				dst[col+3] += v * float64(drow[col+3])
			}
			for ; col < nd; col++ {
				dst[col] += v * float64(drow[col])
			}
		}
	}
}

// sumLanes writes dst[col] = Σ diff[row][col] over the live active rows
// of a binary read and reports true, or reports false as soon as it
// meets a live active row whose input is not exactly 1.0 (the caller
// then takes sumRows, which overwrites all of dst). It adds the rows'
// biased lane words, one 64-bit add per four columns, then unpacks each
// column once and removes the bias n·bias of the n rows added. The
// bake's guard Rows·2·bias < 2¹⁶ keeps every lane sum inside its lane,
// so no add carries into a neighbour and the result is the exact
// integer the diffs path sums to. Columns go in blocks of len(buf)
// words, so the accumulator stays on the stack.
//
//nebula:hotpath
func (k *readKernel) sumLanes(dst, input []float64, mask []uint64) bool {
	var buf [32]uint64 // one 128-column array (mapping.M) per block
	nd := len(dst)
	nw := (nd + lanesPerWord - 1) / lanesPerWord
	for w0 := 0; w0 < nw; w0 += len(buf) {
		acc := buf[:min(len(buf), nw-w0)]
		if w0 > 0 {
			clear(acc)
		}
		n := 0
		for wi, w := range mask {
			for w &= k.rowLive[wi]; w != 0; w &= w - 1 {
				row := wi<<6 + bits.TrailingZeros64(w)
				if math.Float64bits(input[row]) != oneBits {
					return false
				}
				n++
				lrow := k.lanes[row*k.laneWords+w0:]
				lrow = lrow[:len(acc)]
				for j := range acc {
					acc[j] += lrow[j]
				}
			}
		}
		nb := n * k.bias
		for j, a := range acc {
			col := (w0 + j) * lanesPerWord
			if col+lanesPerWord <= nd {
				d := dst[col : col+lanesPerWord : col+lanesPerWord]
				d[0] = float64(int(a&laneMask) - nb)
				d[1] = float64(int(a>>laneBits&laneMask) - nb)
				d[2] = float64(int(a>>(2*laneBits)&laneMask) - nb)
				d[3] = float64(int(a>>(3*laneBits)) - nb)
				continue
			}
			for l := 0; col+l < nd; l++ {
				dst[col+l] = float64(int(a>>(laneBits*uint(l))&laneMask) - nb)
			}
		}
	}
	return true
}

// ErrStaleKernel is returned by MACReadPacked when no fresh baked
// kernel exists. Unlike MACReadInto, the packed path has no dense
// fallback of its own — the packed mask cannot drive macComputeInto's
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
//   - input is read only at set bits of mask, so a caller whose
//     active values are all 1.0 may pass any vector holding 1.0 at
//     those rows (a ones vector) instead of the real one. The stale
//     fallback has no such freedom: ErrStaleKernel sends the caller to
//     MACReadInto, whose dense walk reads every value, so the caller
//     must rebuild the real input from the mask first.
//
// A binary read — every live active input exactly 1.0, as with a ones
// vector — on a kernel with a lane plane sums the rows' 16-bit level
// lanes, four columns per 64-bit add; any other read adds the rows as
// floats in increasing order with the dense walk's grouping. Both give
// the dense walk's level sum exactly, so results are bitwise identical
// (±0.0 column sign aside when a trimmed silent read skips the
// zero-summing the dense path performs — the engine never consumes the
// sign of a zero).
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
	activeN, currentSum := k.read(c, dst, input, mask[:nw], noise, true)
	if stats != nil {
		stats.MACs++
		stats.ActiveRowSum += int64(activeN)
		stats.OutputCurrentUA += currentSum
	}
	return nil
}
