// Package arch is the structural simulator of the NEBULA chip: atomic
// crossbars ganged into morphable tiles and super-tiles with the
// current-domain neuron-unit hierarchy (Fig. 7), ANN and SNN neural cores
// with the Fig. 8 pipeline, and a chip that executes converted networks on
// the simulated crossbar hardware.
//
// Where package energy answers "what does it cost", this package answers
// "does the datapath compute the right thing": layers run through actual
// device-quantized crossbar MACs, current summation across the hierarchy,
// and MTJ neuron thresholding, so architectural claims (morphable mapping,
// ADC-free aggregation up to 16M rows, in-device membrane storage) are
// exercised functionally.
package arch

import (
	"fmt"

	"repro/internal/crossbar"
	"repro/internal/device"
	"repro/internal/mapping"
	"repro/internal/rng"
	"repro/internal/spikeplane"
	"repro/internal/tensor"
)

// SuperTile is a 2×2 array of morphable tiles, each 2×2 atomic crossbars:
// 16 ACs of M×M DW-MTJ synapses. Vertical switch configuration gangs
// `stack` ACs per kernel-column group, summing their source-line currents
// in the analog domain at the appropriate NU hierarchy level.
type SuperTile struct {
	P   device.Params
	Cfg crossbar.Config

	acs   []*crossbar.Crossbar
	stack int // ACs ganged vertically per set
	sets  int // kernel column groups
	rows  int // mapped kernel rows (Rf)
	cols  int // mapped kernel count
	wmax  float64
	// slotAC routes each configured slot (set*stack+height) to a physical
	// AC index; identity after Program, diverging when tile retirement
	// re-places a slot onto a spare array. retired marks physical ACs
	// taken out of service.
	slotAC  []int
	retired []bool
}

// NewSuperTile allocates an unconfigured super-tile.
func NewSuperTile(p device.Params, cfg crossbar.Config, noise *rng.Rand) *SuperTile {
	st := &SuperTile{P: p, Cfg: cfg}
	for i := 0; i < mapping.ACsPerNC; i++ {
		var r *rng.Rand
		if noise != nil {
			r = noise.Split()
		}
		st.acs = append(st.acs, crossbar.New(mapping.M, mapping.M, p, cfg, r))
	}
	return st
}

// Program loads a kernel matrix of shape Rf×K: Rf rows (the flattened
// receptive field, Fig. 5) by K kernels. It configures the morphable
// switches for stack = ceil(Rf/M) and sets = ceil(K/M) and programs the
// constituent ACs. The layer must fit: stack·sets ≤ 16 and Rf ≤ 16M.
func (st *SuperTile) Program(w *tensor.Tensor, wmax float64) error {
	if w.NDim() != 2 {
		return fmt.Errorf("arch: kernel matrix must be 2-D, got %v", w.Shape())
	}
	if err := st.Configure(w.Dim(0), w.Dim(1), wmax); err != nil {
		return err
	}
	return st.write(w, 0)
}

// Configure sets the morphable-switch geometry for an Rf×K kernel
// matrix without programming a single device — the layout half of
// Program, which the image loader uses on its own before importing the
// recorded per-array state. Slot routing starts at identity;
// importSlots replaces it when the image recorded retirements.
func (st *SuperTile) Configure(rf, k int, wmax float64) error {
	stack, sets, err := tileGeometry(rf, k)
	if err != nil {
		return err
	}
	st.stack, st.sets, st.rows, st.cols, st.wmax = stack, sets, rf, k, wmax
	st.slotAC = make([]int, stack*sets)
	for i := range st.slotAC {
		st.slotAC[i] = i
	}
	st.retired = make([]bool, len(st.acs))
	return nil
}

// write programs the configured ACs with their M×M slices of rows
// [rowOff, rowOff+Rf) of w, the device half of Program.
func (st *SuperTile) write(w *tensor.Tensor, rowOff int) error {
	for s := 0; s < st.sets; s++ {
		colLo := s * mapping.M
		colHi := min(colLo+mapping.M, st.cols)
		for h := 0; h < st.stack; h++ {
			rowLo := h * mapping.M
			rowHi := min(rowLo+mapping.M, st.rows)
			sub := tensor.New(mapping.M, mapping.M)
			for r := rowLo; r < rowHi; r++ {
				for c := colLo; c < colHi; c++ {
					sub.Set(w.At(rowOff+r, c), r-rowLo, c-colLo)
				}
			}
			if err := st.ac(s, h).Program(sub, st.wmax); err != nil {
				return err
			}
		}
	}
	return nil
}

// tileGeometry returns the switch configuration of an Rf×K kernel
// matrix on one super-tile — stack ACs ganged per kernel-column set —
// or an error when the matrix does not fit.
func tileGeometry(rf, k int) (stack, sets int, err error) {
	if rf > mapping.MaxRowsPerNC {
		return 0, 0, fmt.Errorf("arch: Rf %d exceeds super-tile capacity %d", rf, mapping.MaxRowsPerNC)
	}
	stack = (rf + mapping.M - 1) / mapping.M
	sets = (k + mapping.M - 1) / mapping.M
	if stack*sets > mapping.ACsPerNC {
		return 0, 0, fmt.Errorf("arch: layer needs %d ACs, super-tile has %d", stack*sets, mapping.ACsPerNC)
	}
	return stack, sets, nil
}

// importSlots restores the slot→array routing and retirement flags
// recorded in a chip image. The tile must be Configured to the same
// geometry first.
func (st *SuperTile) importSlots(slotAC []int, retired []bool) error {
	if len(slotAC) != st.stack*st.sets {
		return fmt.Errorf("arch: slot routing has %d entries, tile has %d slots", len(slotAC), st.stack*st.sets)
	}
	if len(retired) != len(st.acs) {
		return fmt.Errorf("arch: retirement map has %d entries, tile has %d arrays", len(retired), len(st.acs))
	}
	for _, phys := range slotAC {
		if phys < 0 || phys >= len(st.acs) {
			return fmt.Errorf("arch: slot routed to array %d of %d", phys, len(st.acs))
		}
	}
	copy(st.slotAC, slotAC)
	copy(st.retired, retired)
	return nil
}

// ac returns the atomic crossbar at (set, height) in the logical stack,
// through the retirement indirection.
func (st *SuperTile) ac(set, height int) *crossbar.Crossbar {
	return st.acs[st.slotAC[set*st.stack+height]]
}

// Slots returns the number of configured AC slots (stack·sets), or 0
// before Program.
func (st *SuperTile) Slots() int { return st.stack * st.sets }

// SlotCrossbar returns the physical array currently serving a slot.
func (st *SuperTile) SlotCrossbar(slot int) *crossbar.Crossbar {
	return st.acs[st.slotAC[slot]]
}

// AllACs returns every physical atomic crossbar of the super-tile,
// configured or spare — the injection domain of the reliability layer
// (spare arrays are as fallible as active ones).
func (st *SuperTile) AllACs() []*crossbar.Crossbar { return st.acs }

// Retire takes the slot's current array out of service and re-places its
// weight slice onto an unused physical AC of the same super-tile
// (reprogramming from the stored pair targets; the spare's own recorded
// faults apply). It reports whether a spare array was available.
func (st *SuperTile) Retire(slot int) bool {
	if st.stack == 0 || slot < 0 || slot >= st.stack*st.sets {
		return false
	}
	inUse := make([]bool, len(st.acs))
	for _, phys := range st.slotAC {
		inUse[phys] = true
	}
	spare := -1
	for phys := range st.acs {
		if !inUse[phys] && !st.retired[phys] {
			spare = phys
			break
		}
	}
	if spare < 0 {
		return false
	}
	old := st.acs[st.slotAC[slot]]
	w, wmax := old.TargetWeights()
	if err := st.acs[spare].Program(w, wmax); err != nil {
		return false
	}
	st.retired[st.slotAC[slot]] = true
	st.slotAC[slot] = spare
	return true
}

// Tick advances the retention clock of every configured array.
func (st *SuperTile) Tick(steps int64) {
	for slot := 0; slot < st.stack*st.sets; slot++ {
		st.acs[st.slotAC[slot]].Tick(steps)
	}
}

// MaxAge returns the oldest retention age among configured arrays.
func (st *SuperTile) MaxAge() int64 {
	var maxAge int64
	for slot := 0; slot < st.stack*st.sets; slot++ {
		if a := st.acs[st.slotAC[slot]].Age(); a > maxAge {
			maxAge = a
		}
	}
	return maxAge
}

// Refresh scrubs every configured array: pairs are rewritten to their
// targets and the retention clocks reset.
func (st *SuperTile) Refresh() {
	for slot := 0; slot < st.stack*st.sets; slot++ {
		st.acs[st.slotAC[slot]].Refresh()
	}
}

// NULevel returns the hierarchy level that thresholds this configuration.
func (st *SuperTile) NULevel() mapping.NULevel {
	switch {
	case st.stack <= 1:
		return mapping.LevelH0
	case st.stack <= mapping.ACsPerTile:
		return mapping.LevelH1
	default:
		return mapping.LevelH2
	}
}

// Bake freezes the read kernel of every configured array (crossbar
// BakeKernel), switching EvaluateReadInto onto the event-driven fast
// path and enabling EvaluateReadPacked. Call it when the session's conductances
// freeze; results are bitwise identical with or without the bake.
func (st *SuperTile) Bake() {
	for slot := 0; slot < st.stack*st.sets; slot++ {
		st.acs[st.slotAC[slot]].BakeKernel()
	}
}

// BakeGraded is Bake for an ANN core, whose arrays read graded planes
// only: each array bakes the graded kernel (crossbar BakeGradedKernel),
// which reads those planes faster and keeps no binary lane plane.
func (st *SuperTile) BakeGraded() {
	for slot := 0; slot < st.stack*st.sets; slot++ {
		st.acs[st.slotAC[slot]].BakeGradedKernel()
	}
}

// EvalScratch holds the buffers one reader goroutine reuses across
// EvaluateReadInto calls: the M-padded per-AC input window, the per-AC
// partial sums, and the active-row lists regrouped per stack height —
// plus, for a spilled neural core, one block's partial sums and its
// window view of the stage plane (execEnv.readCore).
// A zero EvalScratch is ready to use; buffers grow on first use and are
// reused afterwards. Scratches must not be shared between concurrent
// readers.
type EvalScratch struct {
	slice  []float64 // M-padded input window of one stack height
	part   []float64 // per-AC partial dot products
	actBuf []int     // window-local active rows, grouped by height
	hOff   []int     // actBuf offsets: height h owns [hOff[h], hOff[h+1])
	idx    []int     // materialized plane indices for the packed-path fallback
	ones   []float64 // M ones: a binary plane's row values for the packed read
	dense  []float64 // a binary plane's rebuilt values for the packed-path fallback

	partial []float64        // one row block's column sums
	view    spikeplane.Plane // one row block's window of the stage plane
}

// EvaluateReadInto drives one input vector (length Rf, values in [0, 1])
// through the configured arrays and writes the K column dot products,
// aggregated across the stack by Kirchhoff current summation (no
// digitization), into a caller-provided buffer of length K. Noise draws
// come from the caller's stream and activity lands in the caller's
// stats, so concurrent goroutines may evaluate one programmed
// super-tile as long as nothing reprograms, retires, ticks or refreshes
// it meanwhile. The active-row list is gathered once per call instead
// of once per atomic crossbar. It is the reference walk's read.
//
// active, when non-nil, must list exactly the indices of the non-zero
// input entries in increasing order — the previous layer's spike list.
// nil makes the scratch build the list by scanning the input once.
//
//nebula:hotpath
func (st *SuperTile) EvaluateReadInto(dst, input []float64, active []int, noise *rng.Rand, stats *crossbar.Stats, sc *EvalScratch) error {
	if st.stack == 0 {
		return fmt.Errorf("arch: super-tile not programmed")
	}
	if len(input) != st.rows {
		return fmt.Errorf("arch: input length %d, want Rf %d", len(input), st.rows)
	}
	if len(dst) != st.cols {
		return fmt.Errorf("arch: destination length %d, want K %d", len(dst), st.cols)
	}
	if len(sc.slice) != mapping.M {
		sc.slice = make([]float64, mapping.M)
		sc.part = make([]float64, mapping.M)
	}
	// Regroup the active rows into window-local lists, one per stack
	// height, so each AC of a set reuses its height's list.
	sc.actBuf = sc.actBuf[:0]
	sc.hOff = append(sc.hOff[:0], 0)
	if active != nil {
		i := 0
		for h := 0; h < st.stack; h++ {
			rowLo := h * mapping.M
			rowHi := min(rowLo+mapping.M, st.rows)
			for i < len(active) && active[i] < rowHi {
				sc.actBuf = append(sc.actBuf, active[i]-rowLo)
				i++
			}
			sc.hOff = append(sc.hOff, len(sc.actBuf))
		}
	} else {
		for h := 0; h < st.stack; h++ {
			rowLo := h * mapping.M
			rowHi := min(rowLo+mapping.M, st.rows)
			for r := rowLo; r < rowHi; r++ {
				if input[r] != 0 {
					sc.actBuf = append(sc.actBuf, r-rowLo)
				}
			}
			sc.hOff = append(sc.hOff, len(sc.actBuf))
		}
	}
	for i := range dst {
		dst[i] = 0
	}
	// Keep the set-outer / height-inner walk of the dense path: the
	// per-AC read-noise draws must come off the stream in the same order.
	for s := 0; s < st.sets; s++ {
		colLo := s * mapping.M
		colHi := min(colLo+mapping.M, st.cols)
		for h := 0; h < st.stack; h++ {
			rowLo := h * mapping.M
			rowHi := min(rowLo+mapping.M, st.rows)
			for i := range sc.slice {
				sc.slice[i] = 0
			}
			copy(sc.slice, input[rowLo:rowHi])
			act := sc.actBuf[sc.hOff[h]:sc.hOff[h+1]]
			if err := st.ac(s, h).MACReadInto(sc.part, sc.slice, act, noise, stats); err != nil {
				return err
			}
			// SL current summation: partial dot products add in the
			// current domain across the vertical stack (§IV-B3).
			for c := colLo; c < colHi; c++ {
				dst[c] += sc.part[c-colLo]
			}
		}
	}
	return nil
}

// EvaluateReadPacked is EvaluateReadInto driven by a bit-packed spike
// plane instead of an index list — the production walk's read. The
// per-window re-basing of the active list becomes a word-aligned window
// view of the plane (mapping.M is a multiple of 64, so every
// stack-height window is word-aligned and views cost nothing), and the
// per-AC input is the unpadded row window.
//
// A noiseless read (nil noise) takes two event-driven shortcuts:
//
//   - a stack-height window with no active bits skips its AC read
//     entirely — no MAC is issued, so stats count fewer MACs than
//     EvaluateReadInto (that is the point: silent windows draw no read
//     current);
//   - only the mapped columns of each set are computed
//     (MACReadPacked's trimmed contract), so stats.OutputCurrentUA sums
//     mapped columns only.
//
// A noisy read takes neither: every array reads at full width, so each
// live column draws its noise value in EvaluateReadInto's order and
// sums and stats match it bit for bit. Column sums for the mapped
// columns are bitwise identical to EvaluateReadInto either way.
//
// input is read only at the plane's set bits, and a nil input stands
// for a binary plane's values (1.0 at every set bit), so a caller with
// a binary plane need not build the dense vector at all. Stale kernels
// fall back transparently to the index path, materializing the plane's
// indices into the scratch; since that path's dense per-array fallback
// reads every input value, a nil input is first rebuilt from the plane.
//
//nebula:hotpath
func (st *SuperTile) EvaluateReadPacked(dst, input []float64, plane *spikeplane.Plane, noise *rng.Rand, stats *crossbar.Stats, sc *EvalScratch) error {
	if st.stack == 0 {
		return fmt.Errorf("arch: super-tile not programmed")
	}
	if input == nil && !plane.Binary() {
		return fmt.Errorf("arch: a graded plane needs its input values")
	}
	if input != nil && len(input) != st.rows {
		return fmt.Errorf("arch: input length %d, want Rf %d", len(input), st.rows)
	}
	if len(dst) != st.cols {
		return fmt.Errorf("arch: destination length %d, want K %d", len(dst), st.cols)
	}
	if plane.Len() != st.rows {
		return fmt.Errorf("arch: plane length %d, want Rf %d", plane.Len(), st.rows)
	}
	for slot := 0; slot < st.stack*st.sets; slot++ {
		if !st.acs[st.slotAC[slot]].KernelFresh() {
			// Stale kernel: the packed fast path cannot serve this read;
			// fall back to the index path, which has its own dense
			// fallback per array.
			sc.idx = plane.AppendIndices(sc.idx[:0])
			if input == nil {
				if cap(sc.dense) < st.rows {
					//nebula:coldpath stale kernels only: sized once per scratch
					sc.dense = make([]float64, st.rows)
				}
				sc.dense = sc.dense[:st.rows]
				clear(sc.dense)
				for _, i := range sc.idx {
					sc.dense[i] = 1
				}
				input = sc.dense
			}
			return st.EvaluateReadInto(dst, input, sc.idx, noise, stats, sc)
		}
	}
	if len(sc.part) != mapping.M {
		sc.part = make([]float64, mapping.M)
	}
	if input == nil && len(sc.ones) != mapping.M {
		//nebula:coldpath first binary read of a fresh scratch
		sc.ones = make([]float64, mapping.M)
		for i := range sc.ones {
			sc.ones[i] = 1
		}
	}
	clear(dst)
	skip := noise == nil
	words := plane.WordSlice()
	for s := 0; s < st.sets; s++ {
		colLo := s * mapping.M
		colHi := min(colLo+mapping.M, st.cols)
		part := sc.part
		if skip {
			part = part[:colHi-colLo]
		}
		for h := 0; h < st.stack; h++ {
			rowLo := h * mapping.M
			rowHi := min(rowLo+mapping.M, st.rows)
			win := spikeplane.Window(words, rowLo, rowHi, nil)
			if skip && spikeplane.IsZeroWords(win) {
				// Silent window: no read current, no MAC, and no noise
				// draw to keep in step.
				continue
			}
			var in []float64
			if input != nil {
				in = input[rowLo:rowHi]
			} else {
				in = sc.ones[:rowHi-rowLo]
			}
			if err := st.ac(s, h).MACReadPacked(part, in, win, noise, stats); err != nil {
				return err
			}
			// SL current summation: partial dot products add in the
			// current domain across the vertical stack (§IV-B3).
			for c := colLo; c < colHi; c++ {
				dst[c] += part[c-colLo]
			}
		}
	}
	return nil
}

// Utilization reports the synapse utilization of the configured layer.
func (st *SuperTile) Utilization() float64 {
	if st.stack == 0 {
		return 0
	}
	return float64(st.rows*st.cols) / float64(st.stack*st.sets*mapping.M*mapping.M)
}

// Stats aggregates the configured ACs' own counters (programming
// energy; see crossbar.Crossbar.Stats).
func (st *SuperTile) Stats() crossbar.Stats {
	var total crossbar.Stats
	for _, ac := range st.acs {
		total.ProgramEnergyFJ += ac.Stats().ProgramEnergyFJ
	}
	return total
}

// InjectStuckFaults forces a fraction of the configured arrays' devices
// into stuck states, for fault-resilience studies. Returns the number of
// faulted devices.
func (st *SuperTile) InjectStuckFaults(r *rng.Rand, fraction float64, mode crossbar.FaultMode) int {
	n := 0
	for s := 0; s < st.sets; s++ {
		for h := 0; h < st.stack; h++ {
			n += st.ac(s, h).InjectStuckFaults(r, fraction, mode)
		}
	}
	return n
}
