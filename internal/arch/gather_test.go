package arch

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// TestGatherTableMatchesIm2Col is the table's property test: over
// random conv geometries (stride 1/2, pad 0–2, dense or depthwise
// groups), every window gathered through the table equals, bit for bit,
// the matching column of tensor.Im2Col on that group's sub-image.
func TestGatherTableMatchesIm2Col(t *testing.T) {
	r := rng.New(12)
	for trial := 0; trial < 300; trial++ {
		c := 1 + r.Intn(4)
		kh, kw := 1+r.Intn(3), 1+r.Intn(3)
		stride, pad := 1+r.Intn(2), r.Intn(3)
		h := max(1, kh-2*pad) + r.Intn(7)
		w := max(1, kw-2*pad) + r.Intn(7)
		groups := 1
		if r.Intn(2) == 1 {
			groups = c // depthwise
		}
		gcIn := c / groups
		x := tensor.New(c, h, w)
		for i := range x.Data() {
			if r.Intn(3) > 0 { // keep exact zeros in the mix
				x.Data()[i] = r.NormFloat64()
			}
		}
		gt, err := newGatherTable(gcIn, h, w, kh, kw, stride, pad)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		oh, ow := tensor.ConvOutSize(h, kh, stride, pad), tensor.ConvOutSize(w, kw, stride, pad)
		if gt.oh != oh || gt.ow != ow || gt.rfg != gcIn*kh*kw {
			t.Fatalf("trial %d: table %d×%d rfg %d, want %d×%d rfg %d", trial, gt.oh, gt.ow, gt.rfg, oh, ow, gcIn*kh*kw)
		}
		win := make([]float64, gt.rfg)
		for g := 0; g < groups; g++ {
			sub := x.Data()[g*gcIn*h*w : (g+1)*gcIn*h*w]
			cols := tensor.Im2Col(tensor.FromSlice(sub, gcIn, h, w), kh, kw, stride, pad)
			for pos := 0; pos < gt.npos(); pos++ {
				gt.gather(win, sub, pos)
				for row, v := range win {
					if want := cols.At(row, pos); math.Float64bits(v) != math.Float64bits(want) {
						t.Fatalf("trial %d (c=%d %d×%d k=%d×%d s=%d p=%d groups=%d) group %d pos %d row %d: table %v, im2col %v",
							trial, c, h, w, kh, kw, stride, pad, groups, g, pos, row, v, want)
					}
				}
			}
		}
	}
}

func TestGatherTableRejectsBadGeometry(t *testing.T) {
	if _, err := newGatherTable(1, 2, 2, 5, 5, 1, 0); err == nil {
		t.Error("2×2 input under a 5×5 kernel accepted")
	}
	if _, err := newGatherTable(1, 4, 4, 3, 3, 0, 0); err == nil {
		t.Error("stride 0 accepted")
	}
}
