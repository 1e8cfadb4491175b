// Package spikeplane represents spike vectors as bit-packed uint64
// planes so the whole-chip timestep loop can be event-driven: rate
// counts are popcounts, active-row intersection against a kernel's
// live-row mask is a word-AND, and "is this stage silent?" is an
// O(words) scan instead of an O(neurons) walk (DESIGN.md §15).
//
// A plane records *where* spikes are, not their magnitudes; the dense
// []float64 tensor remains the value carrier. For binary (rate-coded)
// planes the bit pattern is the complete signal, which is what enables
// the timestep-repeat cache in the engine. Packing observes the same
// nonzero convention as the dense scan it replaces: any value v != 0
// sets the bit, so negative and graded activations are "active" too.
package spikeplane

import "math/bits"

// WordBits is the number of neuron slots per packed word.
const WordBits = 64

// Words returns the number of uint64 words needed to cover n bits.
func Words(n int) int { return (n + WordBits - 1) / WordBits }

// Plane is a bit-packed spike vector of fixed logical length. The
// zero value is an empty plane; Reset sizes it for reuse without
// allocation in the steady state.
type Plane struct {
	words  []uint64
	n      int
	binary bool
}

// Reset clears the plane and sizes it to n bits. The backing array is
// reused when large enough, so steady-state calls are allocation-free.
//
//nebula:hotpath
func (p *Plane) Reset(n int) {
	w := Words(n)
	if cap(p.words) < w {
		p.words = make([]uint64, w)
	}
	p.words = p.words[:w]
	for i := range p.words {
		p.words[i] = 0
	}
	p.n = n
	p.binary = true
}

// Pack fills the plane from a dense value vector: bit i is set iff
// values[i] != 0. Binary() reports whether every nonzero value was
// exactly 1.0, i.e. the bit pattern losslessly encodes the vector.
//
//nebula:hotpath
func (p *Plane) Pack(values []float64) {
	p.Reset(len(values))
	for i, v := range values {
		if v != 0 {
			p.words[i>>6] |= 1 << uint(i&63)
			//nebula:lint-ignore float-eq binary detection is exact by design: only the literal 1.0 lets the bit pattern stand in for the value
			if v != 1.0 {
				p.binary = false
			}
		}
	}
}

// Set marks bit i active. The caller is responsible for calling
// MarkGraded when the associated value is not exactly 1.0.
//
//nebula:hotpath
func (p *Plane) Set(i int) {
	p.words[i>>6] |= 1 << uint(i&63)
}

// OrBits ORs the low n ≤ 64 bits of v into bits [i, i+n) of the plane;
// v must have no bit set at or above n. With Bits it moves a run of
// spikes between planes a word at a time: at most two source words are
// read and at most two plane words written.
//
//nebula:hotpath
func (p *Plane) OrBits(i int, v uint64, n int) {
	wi, sh := i>>6, uint(i&63)
	p.words[wi] |= v << sh
	if sh+uint(n) > 64 {
		p.words[wi+1] |= v >> (64 - sh)
	}
}

// Bits returns bits [i, i+n) of a packed word slice in the low n ≤ 64
// bits of the result.
//
//nebula:hotpath
func Bits(words []uint64, i, n int) uint64 {
	wi, sh := i>>6, uint(i&63)
	v := words[wi] >> sh
	if sh+uint(n) > 64 {
		v |= words[wi+1] << (64 - sh)
	}
	return v & (uint64(1)<<uint(n) - 1)
}

// MarkGraded records that the plane carries non-binary magnitudes, so
// the bit pattern alone does not reproduce the dense vector.
func (p *Plane) MarkGraded() { p.binary = false }

// Len returns the logical bit length of the plane.
func (p *Plane) Len() int { return p.n }

// WordSlice exposes the packed words (read-only by convention).
func (p *Plane) WordSlice() []uint64 { return p.words }

// Binary reports whether every active bit corresponds to the value
// exactly 1.0 since the last Reset/Pack.
func (p *Plane) Binary() bool { return p.binary }

// IsZero reports whether no bit is set, in O(words).
//
//nebula:hotpath
func (p *Plane) IsZero() bool {
	for _, w := range p.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Count returns the number of active bits (the spike count).
//
//nebula:hotpath
func (p *Plane) Count() int {
	n := 0
	for _, w := range p.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// EqualWords reports whether two planes have identical length and bit
// pattern.
//
//nebula:hotpath
func (p *Plane) EqualWords(o *Plane) bool {
	if p.n != o.n || len(p.words) != len(o.words) {
		return false
	}
	for i, w := range p.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// CopyFrom makes p a bitwise copy of o, reusing p's backing array.
//
//nebula:hotpath
func (p *Plane) CopyFrom(o *Plane) {
	if cap(p.words) < len(o.words) {
		p.words = make([]uint64, len(o.words))
	}
	p.words = p.words[:len(o.words)]
	copy(p.words, o.words)
	p.n = o.n
	p.binary = o.binary
}

// AsView aliases p over an externally packed word slice of logical
// length n (e.g. a Window view into a larger plane). The words are
// not copied, so the view must not outlive them; trailing all-zero
// words may be omitted from the slice.
//
//nebula:hotpath
func (p *Plane) AsView(words []uint64, n int, binary bool) {
	p.words = words
	p.n = n
	p.binary = binary
}

// AppendIndices appends the active indices in increasing order to dst
// and returns the extended slice (recycled-append idiom: pass
// dst[:0] to reuse capacity).
func (p *Plane) AppendIndices(dst []int) []int {
	for wi, w := range p.words {
		base := wi << 6
		for w != 0 {
			//nebula:lint-ignore hotalloc cold stale-kernel fallback; callers recycle via dst[:0] so growth amortizes to zero
			dst = append(dst, base+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}

// Iter returns an iterator over the active indices in increasing
// order. The iterator is a value type; no allocation.
//
//nebula:hotpath
func (p *Plane) Iter() Iter {
	return Iter{words: p.words}
}

// Iter yields active bit indices in increasing order via
// TrailingZeros64, preserving the same visit order as a dense
// ascending scan — which is what keeps event-driven accumulation
// bitwise identical to the dense walk.
type Iter struct {
	words []uint64
	cur   uint64
	wi    int
}

// Next returns the next active index, or (-1, false) when exhausted.
//
//nebula:hotpath
func (it *Iter) Next() (int, bool) {
	for it.cur == 0 {
		if it.wi >= len(it.words) {
			return -1, false
		}
		it.cur = it.words[it.wi]
		it.wi++
	}
	tz := bits.TrailingZeros64(it.cur)
	it.cur &= it.cur - 1
	return (it.wi-1)<<6 + tz, true
}

// IterWords iterates a raw word slice (e.g. a Window view) without
// needing a Plane wrapper.
//
//nebula:hotpath
func IterWords(words []uint64) Iter {
	return Iter{words: words}
}

// IsZeroWords reports whether a raw word slice (e.g. a Window view)
// has no bit set.
//
//nebula:hotpath
func IsZeroWords(words []uint64) bool {
	for _, w := range words {
		if w != 0 {
			return false
		}
	}
	return true
}

// CountAnd returns the popcount of a AND b over min(len(a), len(b))
// words — the active-row intersection count against a packed mask.
//
//nebula:hotpath
func CountAnd(a, b []uint64) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	c := 0
	for i := 0; i < n; i++ {
		c += bits.OnesCount64(a[i] & b[i])
	}
	return c
}

// Window extracts bits [lo, hi) of words as a word-aligned view. When
// lo is word-aligned the result is a subslice of words (no copy, no
// masking of the tail beyond hi — callers must not read past hi).
// Otherwise the bits are shifted into buf, which is grown as needed
// and returned. The engine's row windows are always 64-aligned
// (mapping.M and spill block bounds are multiples of 128), so the
// copy path only runs for hand-built windows.
//
//nebula:hotpath
func Window(words []uint64, lo, hi int, buf []uint64) []uint64 {
	if hi <= lo {
		return buf[:0]
	}
	w := Words(hi - lo)
	if lo&63 == 0 {
		wlo := lo >> 6
		end := wlo + w
		if end > len(words) {
			end = len(words)
		}
		return words[wlo:end]
	}
	if cap(buf) < w {
		buf = make([]uint64, w)
	}
	buf = buf[:w]
	shift := uint(lo & 63)
	wlo := lo >> 6
	for i := 0; i < w; i++ {
		var v uint64
		if wlo+i < len(words) {
			v = words[wlo+i] >> shift
		}
		if wlo+i+1 < len(words) {
			v |= words[wlo+i+1] << (64 - shift)
		}
		buf[i] = v
	}
	// Mask the tail beyond hi-lo so shifted windows never expose
	// bits past the window end.
	if r := uint((hi - lo) & 63); r != 0 {
		buf[w-1] &= (1 << r) - 1
	}
	return buf
}
