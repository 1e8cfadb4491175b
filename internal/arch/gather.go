package arch

import (
	"fmt"
	"math"

	"repro/internal/spikeplane"
	"repro/internal/tensor"
)

// gatherTable is a conv stage's receptive-field fetch pattern, stored
// as row runs: for every output position, the contiguous stretches of
// one group's gcIn×h×w sub-image its window reads, one per (channel,
// kernel row) with padding clipped away. A window is laid out in im2col
// row order ((c·kh + ki)·kw + kj), so each run is also contiguous in
// the window. It is the fixed eDRAM → input-buffer address pattern of a
// neural core (PAPER.md §1): derived once from the compiled geometry,
// shared read-only by every run, and never serialized — a loaded
// session re-derives it.
//
// The same runs serve both halves of a window: gatherBits moves the
// spike bits straight from the input plane's words, gather copies the
// float values.
type gatherTable struct {
	// h, w is the input spatial size; oh, ow the output's.
	h, w, oh, ow int
	// rfg is the window length.
	rfg int
	// runs holds every position's runs back to back; position pos owns
	// runs[start[pos]:start[pos+1]].
	runs  []gatherRun
	start []int
}

// gatherRun is one contiguous stretch of a receptive field: the n
// sub-image values from offset src land at window rows [dst, dst+n).
// n never exceeds spikeplane.WordBits, so a run's bits are one
// shift-and-mask of at most two words.
type gatherRun struct {
	src, dst, n int32
}

// newGatherTable derives the table of one group's gcIn×h×w sub-image
// under a kh×kw kernel at the given stride and padding. Every group of a
// grouped stage shares the table; the caller adds the group's base.
func newGatherTable(gcIn, h, w, kh, kw, stride, pad int) (*gatherTable, error) {
	if gcIn < 1 || kh < 1 || kw < 1 || stride < 1 || pad < 0 {
		return nil, fmt.Errorf("arch: invalid conv geometry (channels %d, kernel %d×%d, stride %d, pad %d)", gcIn, kh, kw, stride, pad)
	}
	if h+2*pad < kh || w+2*pad < kw {
		return nil, fmt.Errorf("arch: %d×%d input is smaller than the %d×%d kernel at pad %d", h, w, kh, kw, pad)
	}
	if gcIn*h*w > math.MaxInt32 || gcIn*kh*kw > math.MaxInt32 {
		return nil, fmt.Errorf("arch: %d×%d×%d conv input exceeds the gather table's offset range", gcIn, h, w)
	}
	oh := tensor.ConvOutSize(h, kh, stride, pad)
	ow := tensor.ConvOutSize(w, kw, stride, pad)
	gt := &gatherTable{h: h, w: w, oh: oh, ow: ow, rfg: gcIn * kh * kw,
		runs:  make([]gatherRun, 0, oh*ow*gcIn*kh*spikeplane.Words(kw)),
		start: make([]int, 1, oh*ow+1)}
	for oi := 0; oi < oh; oi++ {
		for oj := 0; oj < ow; oj++ {
			j0 := oj*stride - pad
			lo, hi := max(j0, 0), min(j0+kw, w)
			for c := 0; c < gcIn; c++ {
				for ki := 0; ki < kh; ki++ {
					ii := oi*stride + ki - pad
					if ii < 0 || ii >= h {
						continue
					}
					src, dst := (c*h+ii)*w+lo, (c*kh+ki)*kw+lo-j0
					for n := hi - lo; n > 0; {
						m := min(n, spikeplane.WordBits)
						gt.runs = append(gt.runs, gatherRun{src: int32(src), dst: int32(dst), n: int32(m)})
						src, dst, n = src+m, dst+m, n-m
					}
				}
			}
			gt.start = append(gt.start, len(gt.runs))
		}
	}
	return gt, nil
}

// npos is the number of output positions.
func (gt *gatherTable) npos() int { return gt.oh * gt.ow }

// fits reports whether the table was derived for an h×w input.
func (gt *gatherTable) fits(h, w int) bool { return gt != nil && gt.h == h && gt.w == w }

// gather fills win with position pos's receptive field read from sub,
// one group's gcIn×h×w sub-image (padding reads as zero).
//
//nebula:hotpath
func (gt *gatherTable) gather(win, sub []float64, pos int) {
	clear(win)
	for _, r := range gt.runs[gt.start[pos]:gt.start[pos+1]] {
		copy(win[r.dst:r.dst+r.n], sub[r.src:r.src+r.n])
	}
}

// gatherBits builds position pos's window plane in wp straight from the
// words of the stage's input plane, whose group sub-image starts at bit
// base: bit r of wp is set iff the window value at row r is nonzero,
// exactly what Pack of the gathered window sets. The window is binary
// when the input plane is.
//
//nebula:hotpath
func (gt *gatherTable) gatherBits(wp *spikeplane.Plane, in *spikeplane.Plane, base, pos int) {
	wp.Reset(gt.rfg)
	if !in.Binary() {
		wp.MarkGraded()
	}
	words := in.WordSlice()
	for _, r := range gt.runs[gt.start[pos]:gt.start[pos+1]] {
		if v := spikeplane.Bits(words, base+int(r.src), int(r.n)); v != 0 {
			wp.OrBits(int(r.dst), v, int(r.n))
		}
	}
}
