package crossbar

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// This file is the serialization boundary of the array. StateBlob
// encodes everything the generation-stamp contract counts as
// read-visible device state (levels, targets, fault records, line maps,
// dead lines, spare allocator, retention clock, weight range) plus the
// programming energy needed to reproduce compile-time accounting, straight
// from the live fields; ImportStateBlob decodes such a blob straight into
// an array's planes. A chip image persists the programmed conductances
// bit for bit this way, and a loaded array reads exactly like the one it
// was encoded from. Baked kernels are deliberately not serialized: they
// are caches, rebaked after import. The wire layout is in statecodec.go.

// StateBlob encodes the array's device state, or returns nil when the
// array is blank: identical to a freshly constructed, never-touched
// array of the same geometry (identity line maps, all-zero level
// planes, no fault or dead-line records, a full spare free list in
// allocation order, zero retention age, zero weight range and zero
// programming energy). Image writers skip blank arrays — a loader reconstructs
// them from geometry alone. The encoding is a pure function of the
// state, so equal arrays encode to identical bytes.
func (c *Crossbar) StateBlob() []byte {
	if c.blank() {
		return nil
	}
	// One allocation sized from the geometry: 4 bytes for every plane
	// element bounds the planes, and level planes take a byte an element
	// in practice, which leaves room for the fault and dead-line records.
	elems := len(c.rowMap) + len(c.colMap) + len(c.spareRowsFree) + len(c.spareColsFree) + 4*len(c.levelPlus)
	w := append(make([]byte, 0, 200+4*elems), stateCodecVersion)
	for _, v := range []int{c.Rows, c.Cols, c.physRows, c.physCols} {
		w = binary.LittleEndian.AppendUint32(w, uint32(v))
	}
	w = appendPlane(w, c.rowMap, nil, false)
	w = appendPlane(w, c.colMap, nil, false)
	w = appendPlane(w, c.levelPlus, nil, true)
	w = appendPlane(w, c.levelMinus, nil, true)
	w = appendPlane(w, c.targetPlus, c.levelPlus, true)
	w = appendPlane(w, c.targetMinus, c.levelMinus, true)
	w = appendFaults(w, c.faultPlus)
	w = appendFaults(w, c.faultMinus)
	w = appendDead(w, c.deadRow)
	w = appendDead(w, c.deadCol)
	w = appendPlane(w, c.spareRowsFree, nil, false)
	w = appendPlane(w, c.spareColsFree, nil, false)
	for _, v := range []uint64{uint64(c.age), math.Float64bits(c.wmax), math.Float64bits(c.programEnergyFJ)} {
		w = binary.LittleEndian.AppendUint64(w, v)
	}
	return w
}

// blank reports whether the array equals a freshly constructed one (see
// StateBlob). The scalar checks come first: any programmed array fails
// them without a plane scan.
func (c *Crossbar) blank() bool {
	//nebula:lint-ignore float-eq exact zero means never programmed, not approximately zero
	if c.age != 0 || c.wmax != 0 || c.programEnergyFJ != 0 {
		return false
	}
	for _, p := range [][]int16{c.levelPlus, c.levelMinus, c.targetPlus, c.targetMinus} {
		if slices.ContainsFunc(p, func(v int16) bool { return v != 0 }) {
			return false
		}
	}
	for _, recs := range [][]faultRec{c.faultPlus, c.faultMinus} {
		if slices.ContainsFunc(recs, func(f faultRec) bool { return f.kind != kindNone }) {
			return false
		}
	}
	if slices.Contains(c.deadRow, true) || slices.Contains(c.deadCol, true) {
		return false
	}
	return isRun(c.rowMap, 0, c.Rows) && isRun(c.colMap, 0, c.Cols) &&
		isRun(c.spareRowsFree, c.Rows, c.physRows) && isRun(c.spareColsFree, c.Cols, c.physCols)
}

// isRun reports whether s is exactly lo, lo+1, …, hi-1.
func isRun(s []int, lo, hi int) bool {
	if len(s) != hi-lo {
		return false
	}
	for i, v := range s {
		if v != lo+i {
			return false
		}
	}
	return true
}

// ImportStateBlob replaces the array's device state with a StateBlob
// encoding. The receiver must have been constructed with the same
// logical and physical geometry (same rows/cols and spare provisioning);
// everything else — levels, maps, faults, spares, retention clock,
// weight range, programming energy — is overwritten from the blob.
//
// The blob's framing is checked in full before any field is written, and
// every claimed element count is bounded by the array's geometry, so a
// truncated or bit-flipped blob yields an error, never a panic or an
// attacker-sized allocation. Values are range-checked as they land in
// the live planes, so on error the receiver is left partially
// overwritten and must be discarded; the image loader does exactly that.
// Planes are written in place — dense layouts overwrite every element,
// sparse and nil layouts scan-clear first — so rehydrating a freshly
// built skeleton costs one pass over the blob and no per-plane garbage.
// The generation stamp is bumped and any baked kernel is dropped, so the
// importer must rebake before frozen reads.
func (c *Crossbar) ImportStateBlob(data []byte) error {
	r := &stateReader{b: data}
	if v := r.u8(); r.err == nil && v != stateCodecVersion {
		return fmt.Errorf("crossbar: state blob codec version %d, this build reads %d", v, stateCodecVersion)
	}
	rows := int(int32(r.u32()))
	cols := int(int32(r.u32()))
	physRows := int(int32(r.u32()))
	physCols := int(int32(r.u32()))
	if r.err != nil {
		return r.err
	}
	if rows != c.Rows || cols != c.Cols {
		return fmt.Errorf("crossbar: state is %d×%d, array is %d×%d", rows, cols, c.Rows, c.Cols)
	}
	if physRows != c.physRows || physCols != c.physCols {
		return fmt.Errorf("crossbar: state physical geometry %d×%d, array %d×%d (spare provisioning must match)",
			physRows, physCols, c.physRows, c.physCols)
	}
	n := c.physRows * c.physCols
	rowMap, colMap := r.plane(c.Rows), r.plane(c.Cols)
	lvPlus, lvMinus := r.plane(n), r.plane(n)
	dPlus, dMinus := r.plane(n), r.plane(n)
	faultsPlus, faultsMinus := r.records(faultRecSize), r.records(faultRecSize)
	deadRows, deadCols := r.records(4), r.records(4)
	spareRows := r.section(c.physRows - c.Rows)
	spareCols := r.section(c.physCols - c.Cols)
	var scalars [3]uint64
	for i := range scalars {
		scalars[i] = r.u64()
	}
	if r.err != nil {
		return r.err
	}
	if r.off != len(data) {
		return fmt.Errorf("crossbar: state blob has %d trailing bytes", len(data)-r.off)
	}

	// gen == 0 means no mutator has ever touched this array — the
	// freshly built skeleton of a rehydrating session — so its planes
	// are known all-zero and the plane fill can skip every clearing
	// scan. The genstamp contract (every mutator bumps gen) is what
	// makes this sound.
	pristine := c.gen == 0
	c.invalidate()
	if err := fill(c.rowMap, rowMap, c.physRows, false, "row map"); err != nil {
		return err
	}
	if err := fill(c.colMap, colMap, c.physCols, false, "col map"); err != nil {
		return err
	}
	// An all-nil record of a never-written array leaves its planes
	// unallocated; anything else materializes them.
	if c.levelPlus != nil || !lvPlus.isNil || !lvMinus.isNil || !dPlus.isNil || !dMinus.isNil {
		c.ensurePlanes()
		states := c.P.States()
		if err := fillPlanes(c.levelPlus, c.targetPlus, lvPlus, dPlus, pristine, states); err != nil {
			return err
		}
		if err := fillPlanes(c.levelMinus, c.targetMinus, lvMinus, dMinus, pristine, states); err != nil {
			return err
		}
	}
	if faultsPlus.n+faultsMinus.n+deadRows.n+deadCols.n > 0 {
		c.ensureFaults()
		clearFaults(c.faultPlus)
		clearFaults(c.faultMinus)
		clearDead(c.deadRow)
		clearDead(c.deadCol)
		for _, err := range []error{
			applyFaults(c.faultPlus, faultsPlus),
			applyFaults(c.faultMinus, faultsMinus),
			applyDead(c.deadRow, deadRows, "row"),
			applyDead(c.deadCol, deadCols, "col"),
		} {
			if err != nil {
				return err
			}
		}
	} else {
		c.faultPlus, c.faultMinus = nil, nil
		c.deadRow, c.deadCol = nil, nil
	}
	c.spareRowsFree = slices.Grow(c.spareRowsFree[:0], spareRows.n)[:spareRows.n]
	c.spareColsFree = slices.Grow(c.spareColsFree[:0], spareCols.n)[:spareCols.n]
	if err := fill(c.spareRowsFree, spareRows, c.physRows, false, "spare row"); err != nil {
		return err
	}
	if err := fill(c.spareColsFree, spareCols, c.physCols, false, "spare col"); err != nil {
		return err
	}
	c.age = int64(scalars[0])
	c.wmax = math.Float64frombits(scalars[1])
	c.programEnergyFJ = math.Float64frombits(scalars[2])
	c.DropKernel()
	return nil
}

// applyFaults installs a fault-record list into a dense record plane.
func applyFaults(recs []faultRec, s recordSection) error {
	for j := 0; j < s.n; j++ {
		e := s.data[j*faultRecSize:]
		idx, kind := binary.LittleEndian.Uint32(e), FaultKind(e[4])
		if uint64(idx) >= uint64(len(recs)) {
			return fmt.Errorf("crossbar: state fault at device %d beyond the %d-device plane", idx, len(recs))
		}
		if kind == kindNone || kind > kindStuckP {
			return fmt.Errorf("crossbar: state fault at device %d has unknown kind %d", idx, kind)
		}
		recs[idx] = faultRec{kind: kind, level: int16(binary.LittleEndian.Uint16(e[5:]))}
	}
	return nil
}

// applyDead marks a dead-line index list in a dense dead-line map.
func applyDead(dead []bool, s recordSection, axis string) error {
	for j := 0; j < s.n; j++ {
		idx := binary.LittleEndian.Uint32(s.data[4*j:])
		if uint64(idx) >= uint64(len(dead)) {
			return fmt.Errorf("crossbar: state dead %s %d out of physical range %d", axis, idx, len(dead))
		}
		dead[idx] = true
	}
	return nil
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
	if i := slices.Index(dead, true); i >= 0 {
		clear(dead[i:])
	}
}
