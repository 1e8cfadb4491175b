package crossbar

import (
	"encoding/binary"
	"fmt"
	"math"
)

// This file is the wire layout of a state blob: a flat little-endian
// record shaped by what arrays actually hold.
//
//   - a version byte, then the logical and physical geometry (u32 each);
//   - the row and column maps, the four level planes, the fault-record
//     lists, the dead-line lists and the spare free lists, in that
//     order;
//   - the retention age, the weight range and the programming energy
//     (u64 each, floats as their IEEE-754 bits).
//
// Planes are shaped to their content:
//
//   - a nil plane — an all-zero level plane, or an empty list — collapses
//     to a one-word sentinel, so a spare array costs bytes proportional
//     to its fault records, not its geometry;
//   - each plane picks the narrower of a dense and a sparse (index,
//     value) layout from its exact nonzero count, at the narrowest
//     element width (u8/u16/u32) that holds its values — device levels
//     fit a byte at the paper's 4-bit operating point;
//   - target planes are stored as zigzag deltas against the level
//     planes: write-verify drives levels onto their targets, so the
//     delta plane is sparse even on a fully programmed array (only
//     program variation and fault pins diverge);
//   - fault records (u32 device, u8 kind, u16 level) and dead-line lists
//     (u32 line) are sparse by construction.
//
// The chip-image payload embeds the blob bytes directly, so tile states
// can be decoded in parallel on load. All layout choices are pure
// functions of the value, so equal states encode to identical bytes —
// the byte-determinism the image cache and `make image-check` rely on.

// stateCodecVersion tags the blob layout; a decoder rejects versions it
// does not know instead of misreading them.
const stateCodecVersion = 4

// nilPlane is the length sentinel for a nil plane.
const nilPlane = ^uint32(0)

// sparseLayout flags a plane's layout byte as sparse (index, value)
// entries rather than dense elements; the low bits keep the element
// width.
const sparseLayout = 0x80

// faultRecSize is the wire size of one fault record.
const faultRecSize = 7

// planeElem constrains the element types a wire plane can carry: the
// wide int of the line maps and spare lists, and the int16 of the
// device level planes.
type planeElem interface{ ~int | ~int16 }

// appendPlane appends a plane in its wire layout. With base, the plane
// written is the zigzag delta s−base rather than s itself. An empty
// plane, or with zeroNil an all-zero one, is written as the nilPlane
// sentinel. The plane is scanned twice — nonzero count and width first,
// then the write — so no intermediate delta plane is built.
func appendPlane[T planeElem](w []byte, s, base []T, zeroNil bool) []byte {
	nz, width := 0, 1
	for i, v := range s {
		x := int(v)
		if base != nil {
			x = zigzag(x - int(base[i]))
		}
		switch {
		case x == 0:
			continue
		case x < 0 || x > math.MaxUint16:
			width = 4
		case x > math.MaxUint8:
			width = max(width, 2)
		}
		nz++
	}
	if len(s) == 0 || zeroNil && nz == 0 {
		return binary.LittleEndian.AppendUint32(w, nilPlane)
	}
	w = binary.LittleEndian.AppendUint32(w, uint32(len(s)))
	sparse := nz*(4+width) < len(s)*width
	if sparse {
		w = append(w, byte(width)|sparseLayout)
		w = binary.LittleEndian.AppendUint32(w, uint32(nz))
	} else {
		w = append(w, byte(width))
	}
	for i, v := range s {
		x := int(v)
		if base != nil {
			x = zigzag(x - int(base[i]))
		}
		if sparse {
			if x == 0 {
				continue
			}
			w = binary.LittleEndian.AppendUint32(w, uint32(i))
		}
		switch width {
		case 1:
			w = append(w, byte(x))
		case 2:
			w = binary.LittleEndian.AppendUint16(w, uint16(x))
		default:
			w = binary.LittleEndian.AppendUint32(w, uint32(int32(x)))
		}
	}
	return w
}

// appendFaults appends the fault records of a dense record plane,
// ascending by device index, behind their count.
func appendFaults(w []byte, recs []faultRec) []byte {
	at, n := len(w), 0
	w = append(w, 0, 0, 0, 0)
	for i, f := range recs {
		if f.kind != kindNone {
			w = binary.LittleEndian.AppendUint32(w, uint32(i))
			w = append(w, byte(f.kind))
			w = binary.LittleEndian.AppendUint16(w, uint16(f.level))
			n++
		}
	}
	binary.LittleEndian.PutUint32(w[at:], uint32(n))
	return w
}

// appendDead appends the dead lines of a dense dead-line map, ascending,
// behind their count.
func appendDead(w []byte, dead []bool) []byte {
	at, n := len(w), 0
	w = append(w, 0, 0, 0, 0)
	for i, d := range dead {
		if d {
			w = binary.LittleEndian.AppendUint32(w, uint32(i))
			n++
		}
	}
	binary.LittleEndian.PutUint32(w[at:], uint32(n))
	return w
}

// zigzag folds a signed delta into a small unsigned value so narrow
// widths still apply.
func zigzag(v int) int { return int((uint64(int64(v)) << 1) ^ uint64(int64(v)>>63)) }

// unzigzag reverses zigzag.
func unzigzag(v int) int { return int(int64(uint64(v)>>1) ^ -int64(uint64(v)&1)) }

// stateReader is a bounds-checked cursor over a state blob. Every read
// checks the remaining length, and every claimed element count is
// validated against the geometry and the bytes actually present before
// anything is sliced, so a damaged blob yields an error, never a panic.
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
	if n < 0 || n > len(r.b)-r.off {
		r.fail("crossbar: state blob truncated at offset %d (want %d more bytes)", r.off, n)
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

func (r *stateReader) u8() uint8 {
	if s := r.take(1); s != nil {
		return s[0]
	}
	return 0
}

func (r *stateReader) u32() uint32 {
	if s := r.take(4); s != nil {
		return binary.LittleEndian.Uint32(s)
	}
	return 0
}

func (r *stateReader) u64() uint64 {
	if s := r.take(8); s != nil {
		return binary.LittleEndian.Uint64(s)
	}
	return 0
}

// recordSection is a counted list of fixed-size records — fault records
// or dead-line indices — captured as raw bytes.
type recordSection struct {
	n    int
	data []byte
}

// records captures a counted list of size-byte records.
func (r *stateReader) records(size int) recordSection {
	raw := r.u32()
	if r.err == nil && uint64(raw) > uint64((len(r.b)-r.off)/size) {
		r.fail("crossbar: state blob claims %d records with %d bytes left", raw, len(r.b)-r.off)
	}
	if r.err != nil {
		return recordSection{}
	}
	n := int(raw)
	return recordSection{n: n, data: r.take(n * size)}
}

// planeSection is one plane's wire section, captured without
// materializing the plane: layout, entry count and the raw element
// bytes. Capturing sections lets the importer check a blob's whole
// framing before writing any field, and process planes out of wire
// order — a target-delta plane is applied against a level plane that
// precedes it on the wire by one section.
type planeSection struct {
	isNil  bool
	sparse bool
	n, nz  int
	width  int
	data   []byte
}

// section captures one plane's wire section, which may hold at most
// maxLen elements. A nil section holds none.
func (r *stateReader) section(maxLen int) planeSection {
	raw := r.u32()
	if r.err != nil {
		return planeSection{}
	}
	if raw == nilPlane {
		return planeSection{isNil: true}
	}
	if uint64(raw) > uint64(maxLen) {
		r.fail("crossbar: state blob claims a %d-element plane where geometry allows %d", raw, maxLen)
		return planeSection{}
	}
	layout := r.u8()
	s := planeSection{n: int(raw), width: int(layout &^ sparseLayout), sparse: layout&sparseLayout != 0}
	if r.err == nil && s.width != 1 && s.width != 2 && s.width != 4 {
		r.fail("crossbar: state blob has element width %d", s.width)
	}
	if r.err != nil {
		return planeSection{}
	}
	if !s.sparse {
		s.data = r.take(s.n * s.width)
		return s
	}
	nz := r.u32()
	if r.err == nil && (uint64(nz) > uint64(s.n) || int(nz)*(4+s.width) > len(r.b)-r.off) {
		r.fail("crossbar: state blob claims %d sparse entries in a %d-element plane", nz, s.n)
	}
	if r.err != nil {
		return planeSection{}
	}
	s.nz = int(nz)
	s.data = r.take(s.nz * (4 + s.width))
	return s
}

// plane captures the section of a plane whose length the geometry
// fixes: nil, or exactly n elements.
func (r *stateReader) plane(n int) planeSection {
	s := r.section(n)
	if r.err == nil && !s.isNil && s.n != n {
		r.fail("crossbar: state blob plane sized %d, geometry wants %d", s.n, n)
	}
	return s
}

// sparseEntry returns the j-th (index, value) pair of a sparse section.
func (s *planeSection) sparseEntry(j int) (int, int) {
	e := s.data[j*(4+s.width):]
	return int(binary.LittleEndian.Uint32(e)), elemAt(e[4:], 0, s.width)
}

// elemAt decodes the i-th width-byte element of b.
func elemAt(b []byte, i, width int) int {
	switch width {
	case 1:
		return int(b[i])
	case 2:
		return int(binary.LittleEndian.Uint16(b[2*i:]))
	default:
		return int(int32(binary.LittleEndian.Uint32(b[4*i:])))
	}
}

// fill writes a section into dst — a nil section means all-zero, a
// sparse one lists the nonzero entries — checking every value lies in
// [0, hi). zeroed asserts dst is already all-zero, which lets nil and
// sparse layouts skip the clearing scan, so a sparse plane imports in
// time proportional to its entries, not its geometry.
func fill[T planeElem](dst []T, s planeSection, hi int, zeroed bool, what string) error {
	if s.isNil || s.sparse {
		if !zeroed {
			clearInts(dst)
		}
		for j := 0; j < s.nz; j++ {
			i, v := s.sparseEntry(j)
			if uint(i) >= uint(len(dst)) {
				return fmt.Errorf("crossbar: state blob sparse entry at %d beyond %d-element plane", i, len(dst))
			}
			if v < 0 || v >= hi {
				return fmt.Errorf("crossbar: state %s value %d at %d outside [0,%d)", what, v, i, hi)
			}
			dst[i] = T(v)
		}
		return nil
	}
	for i := range dst {
		v := elemAt(s.data, i, s.width)
		if v < 0 || v >= hi {
			return fmt.Errorf("crossbar: state %s value %d at %d outside [0,%d)", what, v, i, hi)
		}
		dst[i] = T(v)
	}
	return nil
}

// fillPlanes materializes a level plane and its target plane (stored as
// a zigzag delta against the level) into lv and tg in place, validating
// every level against the device's state count. pristine asserts both
// destinations are still all-zero — a freshly constructed array.
func fillPlanes(lv, tg []int16, lvSec, dSec planeSection, pristine bool, states int) error {
	if err := fill(lv, lvSec, states, pristine, "level"); err != nil {
		return err
	}
	if !dSec.isNil && !dSec.sparse {
		for i := range tg {
			tg[i] = int16(int(lv[i]) + unzigzag(elemAt(dSec.data, i, dSec.width)))
		}
		return nil
	}
	// The target plane starts from "equals level" — the nil-delta case
	// and the base of the sparse-delta case — then listed deltas adjust
	// individual devices.
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
		if uint(i) >= uint(len(tg)) {
			return fmt.Errorf("crossbar: state blob sparse entry at %d beyond %d-element plane", i, len(tg))
		}
		tg[i] = int16(int(lv[i]) + unzigzag(v))
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
