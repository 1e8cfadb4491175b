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
	// logical row), so packed spike planes intersect against it with a
	// word-AND instead of a per-index branch.
	rowLive []uint64
	// fullScale is the hoisted output divisor VRead·(States−1)·ΔG; it is
	// the same deterministic expression macCompute evaluates per column.
	fullScale float64
}

// BakeKernel (re)builds the frozen read kernel from the current
// programmed state. Call it when the conductances freeze — after
// programming, fault injection and repair are done — and again after any
// deliberate mutation. Baking never changes read results; it only makes
// MACRead/MACReadInto take the sparse fast path while the kernel stays
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
// the crossbar's generation — i.e. whether MACRead currently takes the
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

// MACReadInto is MACRead writing into a caller-provided destination
// buffer of length Cols, so steady-state readers allocate nothing.
//
// active, when non-nil, must list exactly the indices of the non-zero
// input entries in increasing order (dead-row positions included — they
// still load the source line and count toward IR drop). The engine
// passes the previous layer's spike list here; nil makes MACReadInto
// scan the input itself. A wrong active list silently corrupts the
// result, so only pass lists derived from the same input slice.
//
// Like MACRead, it has no wear side effects and may run on any number
// of goroutines against a programmed array, as long as nothing mutates
// the array meanwhile.
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

// macKernel is the baked fast path: an axpy accumulation over only the
// active rows. Per output column the partial products are summed in the
// same increasing logical-row order, with the same operation grouping
// (((v·atten)·VRead)·1e-3)·g, as the dense walk — which is what keeps
// the result bitwise identical.
func (c *Crossbar) macKernel(k *readKernel, dst, input []float64, active []int, noise *rng.Rand) (activeN int, currentSum float64, err error) {
	if len(input) != c.Rows {
		return 0, 0, fmt.Errorf("crossbar: input length %d, want %d rows", len(input), c.Rows)
	}
	if active != nil {
		activeN = len(active)
	} else {
		for _, v := range input {
			if v != 0 {
				activeN++
			}
		}
	}
	atten := 1.0
	if c.Cfg.IRDropAlpha > 0 && c.Rows > 0 {
		atten = 1 / (1 + c.Cfg.IRDropAlpha*float64(activeN)/float64(c.Rows))
	}
	drift := 1.0
	if c.Cfg.DriftTauSteps > 0 && c.age > 0 {
		drift = math.Exp(-float64(c.age) / c.Cfg.DriftTauSteps)
	}
	for i := range dst {
		dst[i] = 0
	}
	cols := c.Cols
	vread := c.P.VReadMV
	if active != nil {
		for _, row := range active {
			if k.rowDead[row] {
				continue
			}
			vv := input[row] * atten * vread * 1e-3
			trow := k.terms[row*cols : (row+1)*cols]
			for col, g := range trow {
				dst[col] += vv * g
			}
		}
	} else {
		for row, v := range input {
			if v == 0 || k.rowDead[row] {
				continue
			}
			vv := v * atten * vread * 1e-3
			trow := k.terms[row*cols : (row+1)*cols]
			for col, g := range trow {
				dst[col] += vv * g
			}
		}
	}
	// Finalize per column in index order so the read-noise draws stay in
	// the dense path's stream order; dead sense lines read 0 and draw no
	// noise, exactly as macCompute skips them.
	sigma := c.Cfg.ReadNoiseSigma
	for col := 0; col < cols; col++ {
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
	return activeN, currentSum, nil
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
//     column, so trimmed reads consume a different stream count —
//     the engine only takes this path when noise is nil.
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
	activeN := 0
	for i := 0; i < nw; i++ {
		activeN += bits.OnesCount64(mask[i])
	}
	atten := 1.0
	if c.Cfg.IRDropAlpha > 0 && c.Rows > 0 {
		atten = 1 / (1 + c.Cfg.IRDropAlpha*float64(activeN)/float64(c.Rows))
	}
	drift := 1.0
	if c.Cfg.DriftTauSteps > 0 && c.age > 0 {
		drift = math.Exp(-float64(c.age) / c.Cfg.DriftTauSteps)
	}
	for i := range dst {
		dst[i] = 0
	}
	cols := c.Cols
	nd := len(dst)
	vread := c.P.VReadMV
	for wi := 0; wi < nw; wi++ {
		w := mask[wi] & k.rowLive[wi]
		base := wi << 6
		for w != 0 {
			row := base + bits.TrailingZeros64(w)
			w &= w - 1
			vv := input[row] * atten * vread * 1e-3
			// Re-slicing to nd == len(dst) lets the compiler drop the
			// per-column bounds checks; the 4-wide unroll breaks the
			// store-to-load chain across independent columns. Each
			// column's own accumulation order is unchanged, so sums
			// stay bitwise identical to the dense walk.
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
	sigma := c.Cfg.ReadNoiseSigma
	var currentSum float64
	for col := 0; col < nd; col++ {
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
	if stats != nil {
		stats.MACs++
		stats.ActiveRowSum += int64(activeN)
		stats.OutputCurrentUA += currentSum
	}
	return nil
}
