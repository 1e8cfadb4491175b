package crossbar

import (
	"math"

	"repro/internal/tensor"
)

// This file carries the device-level reliability model: persistent fault
// records, dead lines, spare-line remapping, the BIST read-verify scan
// and the repair primitives driven by package reliability. The division
// of labor: this package owns the physical mechanisms (what a write or a
// remap does to devices), package reliability owns the policy (when to
// retry, when to remap, when to give up).

// FaultKind classifies a recorded device fault.
type FaultKind uint8

const (
	// kindNone marks a healthy device.
	kindNone FaultKind = iota
	// kindWeak marks a device whose writes fail: the wall lands at an
	// arbitrary wrong level and stays there until a verify retry finally
	// pins it (the dominant DW-MTJ failure mode, repairable by
	// write-verify).
	kindWeak
	// kindStuckAP / kindStuckP mark permanently stuck devices; no write
	// can move them.
	kindStuckAP
	kindStuckP
)

// faultRec is one device's fault record. level is the conductance level
// the device actually presents regardless of writes.
type faultRec struct {
	kind  FaultKind
	level int16
}

func (f faultRec) stuck() bool { return f.kind == kindStuckAP || f.kind == kindStuckP }

// ensureFaults lazily allocates the fault-record and dead-line state so
// fault-free arrays pay nothing. Materializing the all-healthy state
// changes nothing a read can observe, so the method sits outside the
// generation contract; every caller that then records a fault
// invalidates on its own behalf.
//
//nebula:genstamp-exempt allocates all-healthy records; read results unchanged
func (c *Crossbar) ensureFaults() {
	if c.faultPlus == nil {
		c.faultPlus = make([]faultRec, c.physRows*c.physCols)
		c.faultMinus = make([]faultRec, c.physRows*c.physCols)
		c.deadRow = make([]bool, c.physRows)
		c.deadCol = make([]bool, c.physCols)
	}
}

// appliedLevel resolves what level a write of `want` actually leaves on
// the device at physical index pi: healthy devices take the write, faulted
// devices keep their fault level.
func (c *Crossbar) appliedLevel(pi int, plus bool, want int) int {
	if c.faultPlus == nil {
		return want
	}
	rec := c.faultMinus[pi]
	if plus {
		rec = c.faultPlus[pi]
	}
	if rec.kind == kindNone {
		return want
	}
	return int(rec.level)
}

// PhysRows returns the physical row count including spares.
func (c *Crossbar) PhysRows() int { return c.physRows }

// PhysCols returns the physical column count including spares.
func (c *Crossbar) PhysCols() int { return c.physCols }

// Age returns the elapsed timesteps since the last full programming.
func (c *Crossbar) Age() int64 { return c.age }

// Tick advances the retention clock by the given number of timesteps.
// Although drift is derived from the age at read time (a fresh kernel
// reads it per call), Tick still invalidates the kernel: the frozen fast
// path belongs to sessions whose arrays do not age mid-run, and a
// conservative stamp keeps the invalidation contract uniform.
func (c *Crossbar) Tick(steps int64) {
	if steps > 0 {
		c.invalidate()
		c.age += steps
	}
}

// SetStuck records a permanent stuck fault on one device of the physical
// pair (row, col) — plus selects the G⁺ device — and applies its level.
func (c *Crossbar) SetStuck(row, col int, plus bool, mode FaultMode) {
	c.invalidate()
	c.ensureFaults()
	c.ensurePlanes()
	states := c.P.States()
	rec := faultRec{kind: kindStuckAP}
	if mode == StuckP {
		rec = faultRec{kind: kindStuckP, level: int16(states - 1)}
	}
	pi := row*c.physCols + col
	if plus {
		c.faultPlus[pi] = rec
		c.levelPlus[pi] = rec.level
	} else {
		c.faultMinus[pi] = rec
		c.levelMinus[pi] = rec.level
	}
}

// SetWeak records a weak (write-failing) device at the physical pair
// (row, col): the device presents `level` regardless of writes until
// ClearWeak frees it.
func (c *Crossbar) SetWeak(row, col int, plus bool, level int) {
	c.invalidate()
	c.ensureFaults()
	c.ensurePlanes()
	pi := row*c.physCols + col
	rec := faultRec{kind: kindWeak, level: int16(clampLevel(level, c.P.States()))}
	if plus {
		c.faultPlus[pi] = rec
		c.levelPlus[pi] = rec.level
	} else {
		c.faultMinus[pi] = rec
		c.levelMinus[pi] = rec.level
	}
}

// ClearWeak releases a weak device at the *logical* pair (row, col) —
// modelling a verify retry that finally pinned the wall. Stuck devices
// are not clearable. It reports whether a weak record was cleared.
func (c *Crossbar) ClearWeak(row, col int, plus bool) bool {
	if c.faultPlus == nil {
		return false
	}
	pi := c.rowMap[row]*c.physCols + c.colMap[col]
	recs := c.faultMinus
	if plus {
		recs = c.faultPlus
	}
	if recs[pi].kind != kindWeak {
		return false
	}
	c.invalidate()
	recs[pi] = faultRec{}
	return true
}

// WeakAt reports whether the logical pair's devices are currently weak.
func (c *Crossbar) WeakAt(row, col int) (plus, minus bool) {
	if c.faultPlus == nil {
		return false, false
	}
	pi := c.rowMap[row]*c.physCols + c.colMap[col]
	return c.faultPlus[pi].kind == kindWeak, c.faultMinus[pi].kind == kindWeak
}

// StuckAt reports whether the logical pair's devices are permanently
// stuck.
func (c *Crossbar) StuckAt(row, col int) (plus, minus bool) {
	if c.faultPlus == nil {
		return false, false
	}
	pi := c.rowMap[row]*c.physCols + c.colMap[col]
	return c.faultPlus[pi].stuck(), c.faultMinus[pi].stuck()
}

// KillRow marks a physical row line dead (driver failure: no device on
// the row receives read current). It reports whether the line was alive.
func (c *Crossbar) KillRow(row int) bool {
	c.ensureFaults()
	if c.deadRow[row] {
		return false
	}
	c.invalidate()
	c.deadRow[row] = true
	return true
}

// KillCol marks a physical column line dead (sense-amp failure: the
// column reads 0). It reports whether the line was alive.
func (c *Crossbar) KillCol(col int) bool {
	c.ensureFaults()
	if c.deadCol[col] {
		return false
	}
	c.invalidate()
	c.deadCol[col] = true
	return true
}

// PairFault is one mismatched differential pair found by Verify.
type PairFault struct {
	// Row, Col locate the pair in logical coordinates.
	Row, Col int
	// Got and Want are the read-back and intended differential levels
	// (level⁺ − level⁻).
	Got, Want int
}

// FaultMap is the result of one BIST read-verify scan of a crossbar.
type FaultMap struct {
	Rows, Cols int
	// Pairs lists the differential pairs whose read-back level differs
	// from the programmed target, in row-major order.
	Pairs []PairFault
	// DeadRows / DeadCols list logical lines currently routed to a dead
	// physical line.
	DeadRows, DeadCols []int
	// ScanReads counts the read pulses the scan spent (the BIST cost).
	ScanReads int64
}

// Count returns the total faulty pairs implied by the map: mismatched
// pairs plus every pair on a dead line.
func (m *FaultMap) Count() int {
	return len(m.Pairs) + len(m.DeadRows)*m.Cols + len(m.DeadCols)*m.Rows
}

// Verify performs the post-programming built-in self-test: it reads every
// logical pair back and diffs the stored differential level against the
// programmed target, and probes every line for dead drivers/sense-amps.
// The scan observes pair differentials (what the column current shows),
// not individual devices — a fault on the unused device of a pair that
// happens to cancel is invisible, exactly as it is to the NU.
func (c *Crossbar) Verify() *FaultMap {
	m := &FaultMap{Rows: c.Rows, Cols: c.Cols}
	m.ScanReads = int64(c.Rows*c.Cols + c.Rows + c.Cols)
	for r := 0; r < c.Rows; r++ {
		if c.deadRow != nil && c.deadRow[c.rowMap[r]] {
			m.DeadRows = append(m.DeadRows, r)
		}
	}
	for col := 0; col < c.Cols; col++ {
		if c.deadCol != nil && c.deadCol[c.colMap[col]] {
			m.DeadCols = append(m.DeadCols, col)
		}
	}
	deadColSet := map[int]bool{}
	for _, col := range m.DeadCols {
		deadColSet[col] = true
	}
	// A never-written array reads exactly its (all-zero) targets.
	for r := 0; r < c.Rows && c.levelPlus != nil; r++ {
		if c.deadRow != nil && c.deadRow[c.rowMap[r]] {
			continue
		}
		pr := c.rowMap[r]
		for col := 0; col < c.Cols; col++ {
			if deadColSet[col] {
				continue
			}
			pi := pr*c.physCols + c.colMap[col]
			got := int(c.levelPlus[pi]) - int(c.levelMinus[pi])
			want := int(c.targetPlus[pi]) - int(c.targetMinus[pi])
			if got != want {
				m.Pairs = append(m.Pairs, PairFault{Row: r, Col: col, Got: got, Want: want})
			}
		}
	}
	return m
}

// PairError returns the differential level error (got − want) of the
// logical pair (row, col).
func (c *Crossbar) PairError(row, col int) int {
	if c.levelPlus == nil {
		return 0
	}
	pi := c.rowMap[row]*c.physCols + c.colMap[col]
	return (int(c.levelPlus[pi]) - int(c.levelMinus[pi])) - (int(c.targetPlus[pi]) - int(c.targetMinus[pi]))
}

// WritePair re-drives both devices of the logical pair (row, col) toward
// their programmed targets, honoring fault records (stuck and weak
// devices ignore the write). Programming energy is accounted per level
// moved.
func (c *Crossbar) WritePair(row, col int) {
	c.ensurePlanes()
	pi := c.rowMap[row]*c.physCols + c.colMap[col]
	c.writeDevice(pi, true, int(c.targetPlus[pi]))
	c.writeDevice(pi, false, int(c.targetMinus[pi]))
}

// writeDevice drives one device of the physical pair pi toward `want`,
// honoring its fault record and accounting energy for the level moved.
func (c *Crossbar) writeDevice(pi int, plus bool, want int) {
	c.invalidate()
	c.ensurePlanes()
	applied := c.appliedLevel(pi, plus, want)
	states := c.P.States()
	stepEnergy := c.P.WriteEnergyFJ / float64(states-1)
	if plus {
		c.programEnergyFJ += math.Abs(float64(int16(applied)-c.levelPlus[pi])) * stepEnergy
		c.levelPlus[pi] = int16(applied)
	} else {
		c.programEnergyFJ += math.Abs(float64(int16(applied)-c.levelMinus[pi])) * stepEnergy
		c.levelMinus[pi] = int16(applied)
	}
}

// CompensatePair attempts to absorb a fault on the logical pair (row,
// col) by reprogramming the healthy sibling device so the differential
// reads the target again — the standard differential-pair trick: if G⁺ is
// stuck at s and the target differential is d, drive G⁻ to s−d. It
// returns the remaining absolute differential error in levels: 0 means
// fully compensated (or neutralized, see below). If exact compensation is
// out of range, or both devices are faulted, the sibling is driven to
// cancel the pair entirely (the fault-aware zeroing fallback — a zero
// weight beats an arbitrary wrong one), and the residual versus the
// target is returned.
func (c *Crossbar) CompensatePair(row, col int) int {
	c.ensureFaults()
	c.ensurePlanes()
	pi := c.rowMap[row]*c.physCols + c.colMap[col]
	d := int(c.targetPlus[pi]) - int(c.targetMinus[pi])
	fp, fm := c.faultPlus[pi], c.faultMinus[pi]
	states := c.P.States()
	switch {
	case fp.kind != kindNone && fm.kind == kindNone:
		s := int(c.levelPlus[pi])
		m := clampLevel(s-d, states)
		c.writeDevice(pi, false, m)
		c.targetPlus[pi], c.targetMinus[pi] = int16(s), int16(m)
		return abs((s - m) - d)
	case fm.kind != kindNone && fp.kind == kindNone:
		s := int(c.levelMinus[pi])
		p := clampLevel(s+d, states)
		c.writeDevice(pi, true, p)
		c.targetPlus[pi], c.targetMinus[pi] = int16(p), int16(s)
		return abs((p - s) - d)
	default:
		// Both devices faulted (or neither — nothing to do): the pair
		// reads whatever it reads.
		return abs((int(c.levelPlus[pi]) - int(c.levelMinus[pi])) - d)
	}
}

// RemapRow routes the logical row to a healthy spare physical line,
// copying the row's programmed targets onto the spare and writing them
// (the spare's own device faults apply — spares are not magically
// healthy). Dead spares are discarded. It reports whether a spare was
// available.
func (c *Crossbar) RemapRow(row int) bool {
	phys := c.takeSpare(&c.spareRowsFree, c.deadRow)
	if phys < 0 {
		return false
	}
	c.invalidate()
	c.ensurePlanes()
	old := c.rowMap[row]
	c.rowMap[row] = phys
	for col := 0; col < c.Cols; col++ {
		po := old*c.physCols + c.colMap[col]
		pn := phys*c.physCols + c.colMap[col]
		c.targetPlus[pn], c.targetMinus[pn] = c.targetPlus[po], c.targetMinus[po]
		c.writeDevice(pn, true, int(c.targetPlus[pn]))
		c.writeDevice(pn, false, int(c.targetMinus[pn]))
	}
	return true
}

// RemapCol routes the logical column to a healthy spare physical line,
// copying the column's programmed targets onto the spare. It reports
// whether a spare was available.
func (c *Crossbar) RemapCol(col int) bool {
	phys := c.takeSpare(&c.spareColsFree, c.deadCol)
	if phys < 0 {
		return false
	}
	c.invalidate()
	c.ensurePlanes()
	old := c.colMap[col]
	c.colMap[col] = phys
	for r := 0; r < c.Rows; r++ {
		po := c.rowMap[r]*c.physCols + old
		pn := c.rowMap[r]*c.physCols + phys
		c.targetPlus[pn], c.targetMinus[pn] = c.targetPlus[po], c.targetMinus[po]
		c.writeDevice(pn, true, int(c.targetPlus[pn]))
		c.writeDevice(pn, false, int(c.targetMinus[pn]))
	}
	return true
}

// takeSpare pops the next live spare line, permanently discarding dead
// ones, and returns -1 when none remain.
func (c *Crossbar) takeSpare(free *[]int, dead []bool) int {
	for len(*free) > 0 {
		phys := (*free)[0]
		*free = (*free)[1:]
		if dead == nil || !dead[phys] {
			return phys
		}
	}
	return -1
}

// SparesLeft returns the unconsumed live spare line counts.
func (c *Crossbar) SparesLeft() (rows, cols int) {
	for _, s := range c.spareRowsFree {
		if c.deadRow == nil || !c.deadRow[s] {
			rows++
		}
	}
	for _, s := range c.spareColsFree {
		if c.deadCol == nil || !c.deadCol[s] {
			cols++
		}
	}
	return rows, cols
}

// Refresh rewrites every logical pair to its programmed target (honoring
// fault records) and resets the retention clock — the scrub operation
// that undoes retention drift.
func (c *Crossbar) Refresh() {
	c.invalidate()
	for r := 0; r < c.Rows; r++ {
		for col := 0; col < c.Cols; col++ {
			c.WritePair(r, col)
		}
	}
	c.age = 0
}

// TargetWeights reconstructs the weight matrix the array was programmed
// with, from the stored pair targets — what tile retirement reprograms
// onto a spare array. The second result is the weight range wmax.
func (c *Crossbar) TargetWeights() (*tensor.Tensor, float64) {
	states := c.P.States()
	w := tensor.New(c.Rows, c.Cols)
	for r := 0; r < c.Rows && c.targetPlus != nil; r++ {
		for col := 0; col < c.Cols; col++ {
			pi := c.rowMap[r]*c.physCols + c.colMap[col]
			w.Set(float64(c.targetPlus[pi]-c.targetMinus[pi])/float64(states-1)*c.wmax, r, col)
		}
	}
	return w, c.wmax
}

func clampLevel(level, states int) int {
	if level < 0 {
		return 0
	}
	if level > states-1 {
		return states - 1
	}
	return level
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
