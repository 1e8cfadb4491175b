package crossbar

import "fmt"

// This file is the serialization boundary of the array: State is a plain
// exported snapshot of everything the generation-stamp contract counts as
// read-visible device state (levels, targets, fault records, line maps,
// dead lines, spare allocator, retention clock, weight range) plus the
// activity counters needed to reproduce compile-time accounting. A State
// round-trips through its own binary codec (statecodec.go), so a chip
// image can persist the programmed conductances bit for bit and a loaded
// array reads exactly like the one it was exported from. Baked kernels
// are deliberately not part of State: they are caches, rebaked after
// import.

// Fault is one sparse fault record: a device index within the physical
// plane and the fault it carries.
type Fault struct {
	// Idx is the flattened physical device index (row*PhysCols + col).
	Idx int32
	// Kind is the FaultKind ordinal (never kindNone — healthy devices
	// have no record).
	Kind uint8
	// Level is the level the fault presents, for kinds that pin one.
	Level int16
}

// State is an exported deep snapshot of one crossbar's device state.
//
// The representation is shaped by what arrays actually hold, so spare
// arrays snapshot to almost nothing and chip images stay proportional to
// the programmed state: a nil level or target plane means all-zero, and
// fault records and dead lines are sparse lists in ascending index
// order (empty means none materialized).
type State struct {
	Rows, Cols         int
	PhysRows, PhysCols int

	RowMap, ColMap []int

	LevelPlus, LevelMinus   []int16
	TargetPlus, TargetMinus []int16

	FaultsPlus, FaultsMinus []Fault
	DeadRows, DeadCols      []int

	SpareRowsFree, SpareColsFree []int

	Age   int64
	WMax  float64
	Stats Stats
}

// ExportState deep-copies the array's read-visible state. The snapshot
// shares no memory with the receiver.
func (c *Crossbar) ExportState() State {
	st := State{
		Rows: c.Rows, Cols: c.Cols,
		PhysRows: c.physRows, PhysCols: c.physCols,
		RowMap:        append([]int(nil), c.rowMap...),
		ColMap:        append([]int(nil), c.colMap...),
		LevelPlus:     copyPlane(c.levelPlus),
		LevelMinus:    copyPlane(c.levelMinus),
		TargetPlus:    copyPlane(c.targetPlus),
		TargetMinus:   copyPlane(c.targetMinus),
		FaultsPlus:    exportFaults(c.faultPlus),
		FaultsMinus:   exportFaults(c.faultMinus),
		DeadRows:      exportDead(c.deadRow),
		DeadCols:      exportDead(c.deadCol),
		SpareRowsFree: append([]int(nil), c.spareRowsFree...),
		SpareColsFree: append([]int(nil), c.spareColsFree...),
		Age:           c.age,
		WMax:          c.wmax,
		Stats:         c.stats,
	}
	return st
}

// copyPlane deep-copies a level plane, collapsing the all-zero case —
// a never-programmed array — to nil.
func copyPlane(p []int16) []int16 {
	for _, v := range p {
		if v != 0 {
			return append([]int16(nil), p...)
		}
	}
	return nil
}

// exportFaults flattens a dense fault-record plane into its sparse form,
// ascending by device index.
func exportFaults(recs []faultRec) []Fault {
	var out []Fault
	for i, rec := range recs {
		if rec.kind != kindNone {
			out = append(out, Fault{Idx: int32(i), Kind: uint8(rec.kind), Level: rec.level})
		}
	}
	return out
}

// exportDead flattens a dense dead-line map into an ascending index list.
func exportDead(dead []bool) []int {
	var out []int
	for i, d := range dead {
		if d {
			out = append(out, i)
		}
	}
	return out
}

// ImportState replaces the array's read-visible state with the snapshot.
// The receiver must have been constructed with the same logical and
// physical geometry (same rows/cols and spare provisioning); everything
// else — levels, maps, faults, spares, retention clock, weight range,
// activity counters — is overwritten from the snapshot.
//
// The snapshot's line maps and level planes are ADOPTED, not copied: the
// receiver keeps the slices, so the caller must not reuse the snapshot
// (or any slice it holds) afterwards. Adoption is what makes rehydrating
// a chip image proportional to the bytes decoded rather than to the
// provisioned geometry. The generation stamp is bumped and any baked
// kernel is dropped, so the importer must rebake before frozen reads.
func (c *Crossbar) ImportState(st State) error {
	if st.Rows != c.Rows || st.Cols != c.Cols {
		return fmt.Errorf("crossbar: state is %d×%d, array is %d×%d", st.Rows, st.Cols, c.Rows, c.Cols)
	}
	if st.PhysRows != c.physRows || st.PhysCols != c.physCols {
		return fmt.Errorf("crossbar: state physical geometry %d×%d, array %d×%d (spare provisioning must match)",
			st.PhysRows, st.PhysCols, c.physRows, c.physCols)
	}
	n := c.physRows * c.physCols
	if len(st.RowMap) != c.Rows || len(st.ColMap) != c.Cols {
		return fmt.Errorf("crossbar: state line maps sized %d/%d, want %d/%d",
			len(st.RowMap), len(st.ColMap), c.Rows, c.Cols)
	}
	for _, p := range [][]int16{st.LevelPlus, st.LevelMinus, st.TargetPlus, st.TargetMinus} {
		if p != nil && len(p) != n {
			return fmt.Errorf("crossbar: state level plane sized %d, want %d (or nil for all-zero)", len(p), n)
		}
	}
	for _, fs := range [][]Fault{st.FaultsPlus, st.FaultsMinus} {
		for _, f := range fs {
			if f.Idx < 0 || int(f.Idx) >= n {
				return fmt.Errorf("crossbar: state fault at device %d beyond the %d-device plane", f.Idx, n)
			}
			if f.Kind == uint8(kindNone) || f.Kind > uint8(kindStuckP) {
				return fmt.Errorf("crossbar: state fault at device %d has unknown kind %d", f.Idx, f.Kind)
			}
		}
	}
	for _, r := range st.DeadRows {
		if r < 0 || r >= c.physRows {
			return fmt.Errorf("crossbar: state dead row %d out of physical range %d", r, c.physRows)
		}
	}
	for _, col := range st.DeadCols {
		if col < 0 || col >= c.physCols {
			return fmt.Errorf("crossbar: state dead col %d out of physical range %d", col, c.physCols)
		}
	}
	for _, p := range st.RowMap {
		if p < 0 || p >= c.physRows {
			return fmt.Errorf("crossbar: state row map entry %d out of physical range %d", p, c.physRows)
		}
	}
	for _, p := range st.ColMap {
		if p < 0 || p >= c.physCols {
			return fmt.Errorf("crossbar: state col map entry %d out of physical range %d", p, c.physCols)
		}
	}
	for _, s := range st.SpareRowsFree {
		if s < 0 || s >= c.physRows {
			return fmt.Errorf("crossbar: state spare row %d out of physical range %d", s, c.physRows)
		}
	}
	for _, s := range st.SpareColsFree {
		if s < 0 || s >= c.physCols {
			return fmt.Errorf("crossbar: state spare col %d out of physical range %d", s, c.physCols)
		}
	}
	states := c.P.States()
	for _, p := range [][]int16{st.LevelPlus, st.LevelMinus} {
		for i, v := range p {
			if v < 0 || int(v) > states-1 {
				return fmt.Errorf("crossbar: state level at %d outside [0,%d]", i, states-1)
			}
		}
	}

	c.invalidate()
	c.rowMap = st.RowMap
	c.colMap = st.ColMap
	if c.levelPlus == nil && (st.LevelPlus != nil || st.LevelMinus != nil || st.TargetPlus != nil || st.TargetMinus != nil) {
		c.ensurePlanes()
	}
	c.levelPlus = adoptPlane(c.levelPlus, st.LevelPlus)
	c.levelMinus = adoptPlane(c.levelMinus, st.LevelMinus)
	c.targetPlus = adoptPlane(c.targetPlus, st.TargetPlus)
	c.targetMinus = adoptPlane(c.targetMinus, st.TargetMinus)
	hasFaults := len(st.FaultsPlus) > 0 || len(st.FaultsMinus) > 0 ||
		len(st.DeadRows) > 0 || len(st.DeadCols) > 0
	if hasFaults {
		c.ensureFaults()
		clearFaults(c.faultPlus)
		clearFaults(c.faultMinus)
		for _, f := range st.FaultsPlus {
			c.faultPlus[f.Idx] = faultRec{kind: FaultKind(f.Kind), level: f.Level}
		}
		for _, f := range st.FaultsMinus {
			c.faultMinus[f.Idx] = faultRec{kind: FaultKind(f.Kind), level: f.Level}
		}
		clearDead(c.deadRow)
		clearDead(c.deadCol)
		for _, r := range st.DeadRows {
			c.deadRow[r] = true
		}
		for _, col := range st.DeadCols {
			c.deadCol[col] = true
		}
	} else {
		c.faultPlus, c.faultMinus = nil, nil
		c.deadRow, c.deadCol = nil, nil
	}
	c.spareRowsFree = append(c.spareRowsFree[:0], st.SpareRowsFree...)
	c.spareColsFree = append(c.spareColsFree[:0], st.SpareColsFree...)
	c.age = st.Age
	c.wmax = st.WMax
	c.stats = st.Stats
	c.DropKernel()
	return nil
}

// adoptPlane installs a snapshot plane into the receiver, adopting its
// backing array; a nil snapshot plane means all-zero, which keeps the
// live plane and zeroes it. Both paths scan before writing so a plane
// that is already in the target state — the freshly-built skeleton of a
// loaded chip image — costs reads, not page dirtying.
func adoptPlane(dst, src []int16) []int16 {
	if src != nil {
		return src
	}
	for i, v := range dst {
		if v != 0 {
			clear(dst[i:])
			break
		}
	}
	return dst
}

// clearFaults zeroes a dense fault-record plane, scanning first so an
// already-clean plane is not dirtied.
func clearFaults(recs []faultRec) {
	for i := range recs {
		if recs[i].kind != kindNone || recs[i].level != 0 {
			clear(recs[i:])
			return
		}
	}
}

// clearDead zeroes a dense dead-line map, scanning first.
func clearDead(dead []bool) {
	for i, d := range dead {
		if d {
			clear(dead[i:])
			return
		}
	}
}

// Blank reports whether the snapshot equals the state of a freshly
// constructed, never-touched array of the same geometry: identity line
// maps, all-zero level planes, no fault or dead-line records, a full
// spare free list in allocation order, zero retention age, zero weight
// range and zero counters. Image writers skip blank arrays — a loader
// reconstructs them from geometry alone.
func (st State) Blank() bool {
	//nebula:lint-ignore float-eq exact zero means never programmed, not approximately zero
	if st.Age != 0 || st.WMax != 0 || st.Stats != (Stats{}) {
		return false
	}
	if len(st.FaultsPlus) != 0 || len(st.FaultsMinus) != 0 ||
		len(st.DeadRows) != 0 || len(st.DeadCols) != 0 {
		return false
	}
	for i, p := range st.RowMap {
		if p != i {
			return false
		}
	}
	for i, p := range st.ColMap {
		if p != i {
			return false
		}
	}
	for _, p := range [][]int16{st.LevelPlus, st.LevelMinus, st.TargetPlus, st.TargetMinus} {
		for _, v := range p {
			if v != 0 {
				return false
			}
		}
	}
	if len(st.SpareRowsFree) != st.PhysRows-st.Rows || len(st.SpareColsFree) != st.PhysCols-st.Cols {
		return false
	}
	for i, s := range st.SpareRowsFree {
		if s != st.Rows+i {
			return false
		}
	}
	for i, s := range st.SpareColsFree {
		if s != st.Cols+i {
			return false
		}
	}
	return true
}
