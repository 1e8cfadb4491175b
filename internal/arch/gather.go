package arch

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// gatherTable is a conv stage's receptive-field fetch pattern: for every
// output position, the offsets of the rfg = gcIn·kh·kw input values its
// window reads from one group's gcIn×h×w sub-image, in im2col row order
// ((c·kh + ki)·kw + kj), with −1 marking padding. It is the fixed
// eDRAM → input-buffer address pattern of a neural core (PAPER.md §1):
// derived once from the compiled geometry, shared read-only by every
// run, and never serialized — a loaded session re-derives it.
type gatherTable struct {
	// h, w is the input spatial size; oh, ow the output's.
	h, w, oh, ow int
	// rfg is the window length; idx holds oh·ow windows of rfg offsets.
	rfg int
	idx []int32
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
	if gcIn*h*w > math.MaxInt32 {
		return nil, fmt.Errorf("arch: %d×%d×%d conv input exceeds the gather table's offset range", gcIn, h, w)
	}
	oh := tensor.ConvOutSize(h, kh, stride, pad)
	ow := tensor.ConvOutSize(w, kw, stride, pad)
	rfg := gcIn * kh * kw
	gt := &gatherTable{h: h, w: w, oh: oh, ow: ow, rfg: rfg, idx: make([]int32, oh*ow*rfg)}
	i := 0
	for oi := 0; oi < oh; oi++ {
		for oj := 0; oj < ow; oj++ {
			for c := 0; c < gcIn; c++ {
				for ki := 0; ki < kh; ki++ {
					ii := oi*stride + ki - pad
					for kj := 0; kj < kw; kj++ {
						jj := oj*stride + kj - pad
						off := int32(-1)
						if ii >= 0 && ii < h && jj >= 0 && jj < w {
							off = int32((c*h+ii)*w + jj)
						}
						gt.idx[i] = off
						i++
					}
				}
			}
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
	for r, o := range gt.idx[pos*gt.rfg : (pos+1)*gt.rfg] {
		v := 0.0
		if o >= 0 {
			v = sub[o]
		}
		win[r] = v
	}
}
