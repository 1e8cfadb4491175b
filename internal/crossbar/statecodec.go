package crossbar

import (
	"encoding/binary"
	"fmt"
	"math"
)

// This file is State's wire codec: a flat little-endian blob shaped by
// what arrays actually hold.
//
//   - nil (all-zero) level planes collapse to a one-word sentinel, so a
//     spare array costs bytes proportional to its fault records, not its
//     geometry;
//   - each plane picks the narrower of a dense and a sparse (index,
//     value) layout from its exact nonzero count, and dense planes pick
//     the narrowest element width (u8/u16/u32) that holds their values —
//     device levels fit a byte at the paper's 4-bit operating point;
//   - target planes are stored as zigzag deltas against the level
//     planes: write-verify drives levels onto their targets, so the
//     delta plane is sparse even on a fully programmed array (only
//     program variation and fault pins diverge);
//   - fault records and dead-line lists are sparse by construction.
//
// State implements gob.GobEncoder / gob.GobDecoder with this blob, and
// the chip-image payload embeds the blob bytes directly so tile states
// can be decoded in parallel on load. All layout choices are pure
// functions of the value, so equal states encode to identical bytes —
// the byte-determinism the image cache and `make image-check` rely on.

// stateCodecVersion tags the blob layout; a decoder rejects versions it
// does not know instead of misreading them.
const stateCodecVersion = 3

// nilPlane is the length sentinel for a nil (all-zero) plane.
const nilPlane = ^uint32(0)

// sparseLayout flags a plane's layout byte as sparse (index, value)
// entries rather than dense elements; the low bits keep the element
// width.
const sparseLayout = 0x80

// maxPlaneElems caps a decoded plane's claimed element count. The
// largest real plane is a spill block (MaxRowsPerNC rows) plus spare
// provisioning on both axes — well under this; anything bigger is a
// corrupt or hostile blob, rejected before any allocation.
const maxPlaneElems = 1 << 22

// GobEncode serializes the snapshot as a flat binary blob.
func (st State) GobEncode() ([]byte, error) {
	w := make([]byte, 0, stateEncodedSizeHint(&st))
	u32 := func(v uint32) { w = binary.LittleEndian.AppendUint32(w, v) }
	u64 := func(v uint64) { w = binary.LittleEndian.AppendUint64(w, v) }
	faults := func(fs []Fault) {
		u32(uint32(len(fs)))
		for _, f := range fs {
			u32(uint32(f.Idx))
			w = append(w, f.Kind)
			w = binary.LittleEndian.AppendUint16(w, uint16(f.Level))
		}
	}
	idxList := func(s []int) {
		u32(uint32(len(s)))
		for _, v := range s {
			u32(uint32(v))
		}
	}

	w = append(w, stateCodecVersion)
	u32(uint32(st.Rows))
	u32(uint32(st.Cols))
	u32(uint32(st.PhysRows))
	u32(uint32(st.PhysCols))
	w = appendInts(w, st.RowMap)
	w = appendInts(w, st.ColMap)
	w = appendInts(w, st.LevelPlus)
	w = appendInts(w, st.LevelMinus)
	w = appendInts(w, targetDelta(st.TargetPlus, st.LevelPlus))
	w = appendInts(w, targetDelta(st.TargetMinus, st.LevelMinus))
	faults(st.FaultsPlus)
	faults(st.FaultsMinus)
	idxList(st.DeadRows)
	idxList(st.DeadCols)
	w = appendInts(w, st.SpareRowsFree)
	w = appendInts(w, st.SpareColsFree)
	u64(uint64(st.Age))
	u64(math.Float64bits(st.WMax))
	u64(uint64(st.Stats.MACs))
	u64(uint64(st.Stats.ActiveRowSum))
	u64(math.Float64bits(st.Stats.OutputCurrentUA))
	u64(math.Float64bits(st.Stats.ProgramEnergyFJ))
	return w, nil
}

// planeElem constrains the element types a wire plane can carry: the
// wide int of the remap tables and spare lists, and the int16 of the
// device level planes (a level fits a byte at the paper's 4-bit
// operating point; int16 keeps headroom while quartering the memory
// traffic of every plane fill against []int).
type planeElem interface{ ~int | ~int16 }

// appendElem appends one plane element at the given width.
func appendElem(w []byte, v int, width uint8) []byte {
	switch width {
	case 1:
		return append(w, byte(v))
	case 2:
		return binary.LittleEndian.AppendUint16(w, uint16(v))
	default:
		return binary.LittleEndian.AppendUint32(w, uint32(int32(v)))
	}
}

// appendInts appends a plane in its wire layout: the nilPlane sentinel,
// or the narrower of a dense and a sparse (index, value) encoding at
// the narrowest element width that holds the values.
func appendInts[T planeElem](w []byte, s []T) []byte {
	if s == nil {
		return binary.LittleEndian.AppendUint32(w, nilPlane)
	}
	w = binary.LittleEndian.AppendUint32(w, uint32(len(s)))
	width := intWidth(s)
	nz := 0
	for _, v := range s {
		if v != 0 {
			nz++
		}
	}
	if nz*(4+int(width)) < len(s)*int(width) {
		w = append(w, width|sparseLayout)
		w = binary.LittleEndian.AppendUint32(w, uint32(nz))
		for i, v := range s {
			if v != 0 {
				w = binary.LittleEndian.AppendUint32(w, uint32(i))
				w = appendElem(w, int(v), width)
			}
		}
		return w
	}
	w = append(w, width)
	for _, v := range s {
		w = appendElem(w, int(v), width)
	}
	return w
}

// stateEncodedSizeHint upper-bounds the dense portion of the encoding so
// the writer allocates once.
func stateEncodedSizeHint(st *State) int {
	n := 0
	for _, p := range [][]int{st.RowMap, st.ColMap, st.SpareRowsFree, st.SpareColsFree} {
		n += 5 + 4*len(p)
	}
	for _, p := range [][]int16{st.LevelPlus, st.LevelMinus, st.TargetPlus, st.TargetMinus} {
		n += 5 + 4*len(p)
	}
	return 160 + n + 7*(len(st.FaultsPlus)+len(st.FaultsMinus))
}

// targetDelta derives the zigzag delta plane target−level; nil means the
// target plane equals the level plane (the write-verify steady state).
// The delta is what goes on the wire: it is zero wherever programming
// converged, so it stays sparse even on dense arrays.
func targetDelta(target, level []int16) []int {
	if target == nil && level == nil {
		return nil
	}
	n := len(target)
	if n == 0 {
		n = len(level)
	}
	var out []int
	for i := 0; i < n; i++ {
		t, l := 0, 0
		if target != nil {
			t = int(target[i])
		}
		if level != nil {
			l = int(level[i])
		}
		if t != l && out == nil {
			out = make([]int, n)
		}
		if out != nil {
			out[i] = zigzag(t - l)
		}
	}
	return out
}

// applyTargetDelta reverses targetDelta: target[i] = level[i] +
// unzigzag(delta[i]), collapsing an all-zero result back to nil so the
// round trip is exact.
func applyTargetDelta(delta []int, level []int16, n int) []int16 {
	if delta == nil && level == nil {
		return nil
	}
	out := make([]int16, n)
	allZero := true
	for i := range out {
		v := 0
		if level != nil {
			v = int(level[i])
		}
		if delta != nil {
			v += unzigzag(delta[i])
		}
		out[i] = int16(v)
		if out[i] != 0 {
			allZero = false
		}
	}
	if allZero {
		return nil
	}
	return out
}

// zigzag folds a signed delta into a small unsigned value so narrow
// widths still apply.
func zigzag(v int) int { return int((uint64(int64(v)) << 1) ^ uint64(int64(v)>>63)) }

// unzigzag reverses zigzag.
func unzigzag(v int) int { return int(int64(uint64(v)>>1) ^ -int64(uint64(v)&1)) }

// intWidth returns the narrowest element width (1, 2 or 4 bytes) that
// round-trips every value in s. The choice depends only on the values,
// keeping the encoding deterministic.
func intWidth[T planeElem](s []T) uint8 {
	width := uint8(1)
	for _, v := range s {
		switch {
		case int(v) < 0 || int(v) > math.MaxUint16:
			return 4
		case int(v) > math.MaxUint8:
			width = 2
		}
	}
	return width
}

// stateReader is a bounds-checked cursor over an encoded State blob.
// Every read checks the remaining length, and every claimed element
// count is validated against the bytes actually present before
// allocating, so a truncated or bit-flipped blob yields an error, never
// a panic or an attacker-sized allocation.
type stateReader struct {
	b   []byte
	off int
	err error
}

func (r *stateReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *stateReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) {
		r.fail("crossbar: state blob truncated at offset %d (want %d more bytes)", r.off, n)
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

func (r *stateReader) u8() uint8 {
	s := r.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

func (r *stateReader) u32() uint32 {
	s := r.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

func (r *stateReader) u64() uint64 {
	s := r.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

// elem reads one plane element of the given width.
func (r *stateReader) elem(width int) int {
	switch width {
	case 1:
		return int(r.u8())
	case 2:
		s := r.take(2)
		if s == nil {
			return 0
		}
		return int(binary.LittleEndian.Uint16(s))
	default:
		return int(int32(r.u32()))
	}
}

// ints reads an int slice in any of its layouts: the nilPlane sentinel
// (→ nil), dense elements, or sparse (index, value) entries.
func (r *stateReader) ints() []int { return readPlane[int](r) }

// readPlane reads a plane in any of its layouts into a fresh slice of
// the requested element type. A wire value the element type cannot hold
// is a decode error, not a silent wrap — width 4 can carry values no
// int16 plane ever produced.
func readPlane[T planeElem](r *stateReader) []T {
	raw := r.u32()
	if r.err != nil || raw == nilPlane {
		return nil
	}
	n := int(raw)
	layout := r.u8()
	width := int(layout &^ sparseLayout)
	if r.err == nil && width != 1 && width != 2 && width != 4 {
		r.fail("crossbar: state blob has element width %d", width)
	}
	if r.err == nil && n > maxPlaneElems {
		r.fail("crossbar: state blob claims a %d-element plane", n)
	}
	if r.err != nil {
		return nil
	}
	if layout&sparseLayout != 0 {
		nz := int(r.u32())
		if r.err == nil && (nz > n || nz*(4+width) > len(r.b)-r.off) {
			r.fail("crossbar: state blob claims %d sparse entries in a %d-element plane", nz, n)
		}
		if r.err != nil {
			return nil
		}
		out := make([]T, n)
		for j := 0; j < nz; j++ {
			i := int(r.u32())
			v := r.elem(width)
			if r.err != nil {
				return nil
			}
			if i >= n {
				r.fail("crossbar: state blob sparse entry at %d beyond %d-element plane", i, n)
				return nil
			}
			if int(T(v)) != v {
				r.fail("crossbar: state blob element %d overflows the plane's element type", v)
				return nil
			}
			out[i] = T(v)
		}
		return out
	}
	if n*width > len(r.b)-r.off {
		r.fail("crossbar: state blob claims %d elements with %d bytes left", n, len(r.b)-r.off)
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	data := r.take(n * width)
	for i := range out {
		var v int
		switch width {
		case 1:
			v = int(data[i])
		case 2:
			v = int(binary.LittleEndian.Uint16(data[2*i:]))
		default:
			v = int(int32(binary.LittleEndian.Uint32(data[4*i:])))
		}
		if int(T(v)) != v {
			r.fail("crossbar: state blob element %d overflows the plane's element type", v)
			return nil
		}
		out[i] = T(v)
	}
	return out
}

// faults reads a sparse fault-record list.
func (r *stateReader) faults() []Fault {
	nz := int(r.u32())
	if r.err == nil && nz*7 > len(r.b)-r.off {
		r.fail("crossbar: state blob claims %d fault records with %d bytes left", nz, len(r.b)-r.off)
	}
	if r.err != nil || nz == 0 {
		return nil
	}
	out := make([]Fault, nz)
	for j := range out {
		idx := r.u32()
		kind := r.u8()
		lv := r.take(2)
		if r.err != nil {
			return nil
		}
		out[j] = Fault{Idx: int32(idx), Kind: kind, Level: int16(binary.LittleEndian.Uint16(lv))}
	}
	return out
}

// idxList reads a sparse index list.
func (r *stateReader) idxList() []int {
	nz := int(r.u32())
	if r.err == nil && nz*4 > len(r.b)-r.off {
		r.fail("crossbar: state blob claims %d indices with %d bytes left", nz, len(r.b)-r.off)
	}
	if r.err != nil || nz == 0 {
		return nil
	}
	out := make([]int, nz)
	for j := range out {
		out[j] = int(int32(r.u32()))
	}
	if r.err != nil {
		return nil
	}
	return out
}

// intsInto reads a plane into dst, which must already have the plane's
// length: the nilPlane sentinel scan-clears dst, a dense layout
// overwrites every element, and a sparse layout scan-clears then sets
// the listed entries. This is the in-place analogue of ints — the hot
// import path decodes straight into the receiving array's planes, so a
// rehydrate allocates nothing per plane.
func (r *stateReader) intsInto(dst []int) {
	raw := r.u32()
	if r.err != nil {
		return
	}
	if raw == nilPlane {
		clearInts(dst)
		return
	}
	n := int(raw)
	if n != len(dst) {
		r.fail("crossbar: state blob plane sized %d, geometry wants %d", n, len(dst))
		return
	}
	layout := r.u8()
	width := int(layout &^ sparseLayout)
	if r.err == nil && width != 1 && width != 2 && width != 4 {
		r.fail("crossbar: state blob has element width %d", width)
	}
	if r.err != nil {
		return
	}
	if layout&sparseLayout != 0 {
		nz := int(r.u32())
		if r.err == nil && (nz > n || nz*(4+width) > len(r.b)-r.off) {
			r.fail("crossbar: state blob claims %d sparse entries in a %d-element plane", nz, n)
		}
		if r.err != nil {
			return
		}
		clearInts(dst)
		for j := 0; j < nz; j++ {
			i := int(r.u32())
			v := r.elem(width)
			if r.err != nil {
				return
			}
			if i >= n {
				r.fail("crossbar: state blob sparse entry at %d beyond %d-element plane", i, n)
				return
			}
			dst[i] = v
		}
		return
	}
	data := r.take(n * width)
	if r.err != nil {
		return
	}
	switch width {
	case 1:
		for i := range dst {
			dst[i] = int(data[i])
		}
	case 2:
		for i := range dst {
			dst[i] = int(binary.LittleEndian.Uint16(data[2*i:]))
		}
	default:
		for i := range dst {
			dst[i] = int(int32(binary.LittleEndian.Uint32(data[4*i:])))
		}
	}
}

// planeSection is one plane's wire section, captured without
// materializing the plane: layout, entry count and the raw element
// bytes. Capturing sections lets the importer process planes out of
// wire order — a target-delta plane is applied against a level plane
// that precedes it on the wire by one section.
type planeSection struct {
	isNil  bool
	sparse bool
	n, nz  int
	width  int
	data   []byte
}

// section captures one plane's wire section, validating its framing
// against the expected plane length.
func (r *stateReader) section(wantLen int) planeSection {
	raw := r.u32()
	if r.err != nil {
		return planeSection{}
	}
	if raw == nilPlane {
		return planeSection{isNil: true, n: wantLen}
	}
	n := int(raw)
	if n != wantLen {
		r.fail("crossbar: state blob plane sized %d, geometry wants %d", n, wantLen)
		return planeSection{}
	}
	layout := r.u8()
	width := int(layout &^ sparseLayout)
	if r.err == nil && width != 1 && width != 2 && width != 4 {
		r.fail("crossbar: state blob has element width %d", width)
	}
	if r.err != nil {
		return planeSection{}
	}
	s := planeSection{n: n, width: width}
	if layout&sparseLayout != 0 {
		s.sparse = true
		s.nz = int(r.u32())
		if r.err == nil && (s.nz > n || s.nz*(4+width) > len(r.b)-r.off) {
			r.fail("crossbar: state blob claims %d sparse entries in a %d-element plane", s.nz, n)
			return planeSection{}
		}
		s.data = r.take(s.nz * (4 + width))
		return s
	}
	s.data = r.take(n * width)
	return s
}

// sparseEntry returns the j-th (index, value) pair of a sparse section.
func (s *planeSection) sparseEntry(j int) (int, int) {
	e := s.data[j*(4+s.width):]
	i := int(binary.LittleEndian.Uint32(e))
	switch s.width {
	case 1:
		return i, int(e[4])
	case 2:
		return i, int(binary.LittleEndian.Uint16(e[4:]))
	default:
		return i, int(int32(binary.LittleEndian.Uint32(e[4:])))
	}
}

// denseElem returns the i-th element of a dense section.
func (s *planeSection) denseElem(i int) int {
	switch s.width {
	case 1:
		return int(s.data[i])
	case 2:
		return int(binary.LittleEndian.Uint16(s.data[2*i:]))
	default:
		return int(int32(binary.LittleEndian.Uint32(s.data[4*i:])))
	}
}

// fillPlanes materializes a level plane and its target plane (stored as
// a zigzag delta against the level) into lv and tg in place, validating
// every level against the device's state count. pristine asserts both
// destinations are still all-zero — a freshly constructed array — which
// lets sparse and nil layouts skip the clearing scans entirely, so a
// sparse plane imports in time proportional to its entries, not its
// geometry.
func fillPlanes(lv, tg []int16, lvSec, dSec planeSection, pristine bool, states int) error {
	switch {
	case lvSec.isNil:
		if !pristine {
			clearInts(lv)
		}
	case lvSec.sparse:
		if !pristine {
			clearInts(lv)
		}
		for j := 0; j < lvSec.nz; j++ {
			i, v := lvSec.sparseEntry(j)
			if i >= lvSec.n {
				return fmt.Errorf("crossbar: state blob sparse entry at %d beyond %d-element plane", i, lvSec.n)
			}
			if v < 0 || v > states-1 {
				return fmt.Errorf("crossbar: state level at %d outside [0,%d]", i, states-1)
			}
			lv[i] = int16(v)
		}
	default:
		for i := range lv {
			v := lvSec.denseElem(i)
			if v < 0 || v > states-1 {
				return fmt.Errorf("crossbar: state level at %d outside [0,%d]", i, states-1)
			}
			lv[i] = int16(v)
		}
	}

	// The target plane starts from "equals level" — the nil-delta case
	// and the base of the sparse-delta case — then listed deltas adjust
	// individual devices.
	if dSec.isNil || dSec.sparse {
		switch {
		case pristine && (lvSec.isNil || lvSec.sparse):
			for j := 0; j < lvSec.nz; j++ {
				i, _ := lvSec.sparseEntry(j)
				tg[i] = lv[i]
			}
		case pristine:
			copy(tg, lv)
		default:
			copyInts(tg, lv)
		}
		for j := 0; j < dSec.nz; j++ {
			i, v := dSec.sparseEntry(j)
			if i >= dSec.n {
				return fmt.Errorf("crossbar: state blob sparse entry at %d beyond %d-element plane", i, dSec.n)
			}
			tg[i] = int16(int(lv[i]) + unzigzag(v))
		}
		return nil
	}
	for i := range tg {
		tg[i] = int16(int(lv[i]) + unzigzag(dSec.denseElem(i)))
	}
	return nil
}

// clearInts zeroes a plane, scanning first so an already-zero plane —
// a freshly built skeleton — costs reads, not page dirtying.
func clearInts[T planeElem](s []T) {
	for i, v := range s {
		if v != 0 {
			clear(s[i:])
			return
		}
	}
}

// copyInts copies src over dst, scanning for the first difference first
// so equal planes cost reads only.
func copyInts[T planeElem](dst, src []T) {
	for i := range src {
		if dst[i] != src[i] {
			copy(dst[i:], src[i:])
			return
		}
	}
}

// ImportStateBlob decodes an encoded State blob straight into the
// receiver: the streaming, allocation-free equivalent of GobDecode
// followed by ImportState. Planes are written in place — dense layouts
// overwrite every element, sparse and nil layouts scan-clear first — so
// rehydrating a freshly built skeleton costs one pass over the blob and
// no per-plane garbage. This is what makes a chip-image load cheap: the
// image holds one blob per array, and each lands in the live planes
// without an intermediate State.
//
// Semantics match ImportState, including the validation set, with one
// difference: ImportState validates before mutating, while this decodes
// as it goes, so on error the receiver is left partially overwritten and
// must be discarded. The load path does exactly that — any import error
// abandons the whole session.
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
	// gen == 0 means no mutator has ever touched this array — the
	// freshly built skeleton of a rehydrating session — so its planes
	// are known all-zero and the plane fill can skip every clearing
	// scan. The genstamp contract (every mutator bumps gen) is what
	// makes this sound.
	pristine := c.gen == 0
	c.invalidate()
	r.intsInto(c.rowMap)
	r.intsInto(c.colMap)
	n := c.physRows * c.physCols
	lvPlus := r.section(n)
	lvMinus := r.section(n)
	dPlus := r.section(n)
	dMinus := r.section(n)
	if r.err != nil {
		return r.err
	}
	states := c.P.States()
	// An all-nil record of a never-written array leaves its planes
	// unallocated; anything else materializes them.
	if c.levelPlus != nil || !lvPlus.isNil || !lvMinus.isNil || !dPlus.isNil || !dMinus.isNil {
		c.ensurePlanes()
		if err := fillPlanes(c.levelPlus, c.targetPlus, lvPlus, dPlus, pristine, states); err != nil {
			return err
		}
		if err := fillPlanes(c.levelMinus, c.targetMinus, lvMinus, dMinus, pristine, states); err != nil {
			return err
		}
	}
	faultsPlus := r.faults()
	faultsMinus := r.faults()
	deadRows := r.idxList()
	deadCols := r.idxList()
	spareRows := r.ints()
	spareCols := r.ints()
	age := int64(r.u64())
	wmax := math.Float64frombits(r.u64())
	var stats Stats
	stats.MACs = int64(r.u64())
	stats.ActiveRowSum = int64(r.u64())
	stats.OutputCurrentUA = math.Float64frombits(r.u64())
	stats.ProgramEnergyFJ = math.Float64frombits(r.u64())
	if r.err != nil {
		return r.err
	}
	if r.off != len(data) {
		return fmt.Errorf("crossbar: state blob has %d trailing bytes", len(data)-r.off)
	}

	for _, p := range c.rowMap {
		if p < 0 || p >= c.physRows {
			return fmt.Errorf("crossbar: state row map entry %d out of physical range %d", p, c.physRows)
		}
	}
	for _, p := range c.colMap {
		if p < 0 || p >= c.physCols {
			return fmt.Errorf("crossbar: state col map entry %d out of physical range %d", p, c.physCols)
		}
	}
	for _, fs := range [][]Fault{faultsPlus, faultsMinus} {
		for _, f := range fs {
			if f.Idx < 0 || int(f.Idx) >= n {
				return fmt.Errorf("crossbar: state fault at device %d beyond the %d-device plane", f.Idx, n)
			}
			if f.Kind == uint8(kindNone) || f.Kind > uint8(kindStuckP) {
				return fmt.Errorf("crossbar: state fault at device %d has unknown kind %d", f.Idx, f.Kind)
			}
		}
	}
	for _, row := range deadRows {
		if row < 0 || row >= c.physRows {
			return fmt.Errorf("crossbar: state dead row %d out of physical range %d", row, c.physRows)
		}
	}
	for _, col := range deadCols {
		if col < 0 || col >= c.physCols {
			return fmt.Errorf("crossbar: state dead col %d out of physical range %d", col, c.physCols)
		}
	}
	for _, s := range spareRows {
		if s < 0 || s >= c.physRows {
			return fmt.Errorf("crossbar: state spare row %d out of physical range %d", s, c.physRows)
		}
	}
	for _, s := range spareCols {
		if s < 0 || s >= c.physCols {
			return fmt.Errorf("crossbar: state spare col %d out of physical range %d", s, c.physCols)
		}
	}

	if len(faultsPlus) > 0 || len(faultsMinus) > 0 || len(deadRows) > 0 || len(deadCols) > 0 {
		c.ensureFaults()
		clearFaults(c.faultPlus)
		clearFaults(c.faultMinus)
		for _, f := range faultsPlus {
			c.faultPlus[f.Idx] = faultRec{kind: FaultKind(f.Kind), level: f.Level}
		}
		for _, f := range faultsMinus {
			c.faultMinus[f.Idx] = faultRec{kind: FaultKind(f.Kind), level: f.Level}
		}
		clearDead(c.deadRow)
		clearDead(c.deadCol)
		for _, row := range deadRows {
			c.deadRow[row] = true
		}
		for _, col := range deadCols {
			c.deadCol[col] = true
		}
	} else {
		c.faultPlus, c.faultMinus = nil, nil
		c.deadRow, c.deadCol = nil, nil
	}
	c.spareRowsFree = append(c.spareRowsFree[:0], spareRows...)
	c.spareColsFree = append(c.spareColsFree[:0], spareCols...)
	c.age = age
	c.wmax = wmax
	c.stats = stats
	c.DropKernel()
	return nil
}

// GobDecode restores a snapshot from its blob. Malformed input returns
// an error; the geometry/range validation beyond framing stays with
// ImportState.
func (st *State) GobDecode(data []byte) error {
	r := &stateReader{b: data}
	if v := r.u8(); r.err == nil && v != stateCodecVersion {
		return fmt.Errorf("crossbar: state blob codec version %d, this build reads %d", v, stateCodecVersion)
	}
	st.Rows = int(int32(r.u32()))
	st.Cols = int(int32(r.u32()))
	st.PhysRows = int(int32(r.u32()))
	st.PhysCols = int(int32(r.u32()))
	if r.err == nil && (st.PhysRows < 0 || st.PhysCols < 0 ||
		st.PhysRows > maxPlaneElems || st.PhysCols > maxPlaneElems ||
		int64(st.PhysRows)*int64(st.PhysCols) > maxPlaneElems) {
		return fmt.Errorf("crossbar: state blob claims implausible %d×%d physical geometry", st.PhysRows, st.PhysCols)
	}
	n := st.PhysRows * st.PhysCols
	st.RowMap = r.ints()
	st.ColMap = r.ints()
	st.LevelPlus = readPlane[int16](r)
	st.LevelMinus = readPlane[int16](r)
	for _, p := range [][]int16{st.LevelPlus, st.LevelMinus} {
		if r.err == nil && p != nil && len(p) != n {
			return fmt.Errorf("crossbar: state blob level plane sized %d, geometry wants %d", len(p), n)
		}
	}
	deltaPlus := r.ints()
	deltaMinus := r.ints()
	for _, p := range [][]int{deltaPlus, deltaMinus} {
		if r.err == nil && p != nil && len(p) != n {
			return fmt.Errorf("crossbar: state blob target plane sized %d, geometry wants %d", len(p), n)
		}
	}
	if r.err == nil {
		st.TargetPlus = applyTargetDelta(deltaPlus, st.LevelPlus, n)
		st.TargetMinus = applyTargetDelta(deltaMinus, st.LevelMinus, n)
	}
	st.FaultsPlus = r.faults()
	st.FaultsMinus = r.faults()
	st.DeadRows = r.idxList()
	st.DeadCols = r.idxList()
	st.SpareRowsFree = r.ints()
	st.SpareColsFree = r.ints()
	st.Age = int64(r.u64())
	st.WMax = math.Float64frombits(r.u64())
	st.Stats.MACs = int64(r.u64())
	st.Stats.ActiveRowSum = int64(r.u64())
	st.Stats.OutputCurrentUA = math.Float64frombits(r.u64())
	st.Stats.ProgramEnergyFJ = math.Float64frombits(r.u64())
	if r.err != nil {
		return r.err
	}
	if r.off != len(data) {
		return fmt.Errorf("crossbar: state blob has %d trailing bytes", len(data)-r.off)
	}
	return nil
}
