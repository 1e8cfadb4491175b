package arch

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/spikeplane"
	"repro/internal/tensor"
)

// convGeometry is one random conv layer for the gather-table property
// tests.
type convGeometry struct {
	c, h, w, kh, kw, stride, pad, groups int
}

// randomConvGeometry draws a conv geometry: stride 1–3, pad 0–2, dense,
// depthwise or two-group channels, and one trial in four a wide kernel
// (kw 60–70) whose runs exceed a word and cross word boundaries.
func randomConvGeometry(r *rng.Rand) convGeometry {
	g := convGeometry{c: 1 + r.Intn(4), kh: 1 + r.Intn(3), kw: 1 + r.Intn(3), stride: 1 + r.Intn(3), pad: r.Intn(3), groups: 1}
	if r.Intn(4) == 0 {
		g.kw = 60 + r.Intn(11)
	}
	switch r.Intn(3) {
	case 1:
		g.groups = g.c // depthwise
	case 2:
		g.c *= 2
		g.groups = 2
	}
	g.h = max(1, g.kh-2*g.pad) + r.Intn(7)
	g.w = max(1, g.kw-2*g.pad) + r.Intn(12)
	return g
}

// randomInput fills a c×h×w input: binary spikes, or graded values
// with exact zeros and negative zeros in the mix.
func randomInput(r *rng.Rand, g convGeometry, binary bool) *tensor.Tensor {
	x := tensor.New(g.c, g.h, g.w)
	d := x.Data()
	for i := range d {
		switch {
		case r.Intn(3) == 0:
		case binary:
			d[i] = 1
		case r.Intn(8) == 0:
			d[i] = math.Copysign(0, -1)
		default:
			d[i] = r.NormFloat64()
		}
	}
	return x
}

// TestGatherTableMatchesIm2Col is the float gather's property test:
// over random conv geometries, every window gathered through the run
// table equals, bit for bit, the matching column of tensor.Im2Col on
// that group's sub-image.
func TestGatherTableMatchesIm2Col(t *testing.T) {
	r := rng.New(12)
	for trial := 0; trial < 300; trial++ {
		g := randomConvGeometry(r)
		x := randomInput(r, g, false)
		gcIn := g.c / g.groups
		gt, err := newGatherTable(gcIn, g.h, g.w, g.kh, g.kw, g.stride, g.pad)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		oh, ow := tensor.ConvOutSize(g.h, g.kh, g.stride, g.pad), tensor.ConvOutSize(g.w, g.kw, g.stride, g.pad)
		if gt.oh != oh || gt.ow != ow || gt.rfg != gcIn*g.kh*g.kw {
			t.Fatalf("trial %d: table %d×%d rfg %d, want %d×%d rfg %d", trial, gt.oh, gt.ow, gt.rfg, oh, ow, gcIn*g.kh*g.kw)
		}
		win := make([]float64, gt.rfg)
		for grp := 0; grp < g.groups; grp++ {
			sub := x.Data()[grp*gcIn*g.h*g.w : (grp+1)*gcIn*g.h*g.w]
			cols := tensor.Im2Col(tensor.FromSlice(sub, gcIn, g.h, g.w), g.kh, g.kw, g.stride, g.pad)
			for pos := 0; pos < gt.npos(); pos++ {
				for i := range win {
					win[i] = math.NaN() // the gather must overwrite every row
				}
				gt.gather(win, sub, pos)
				for row, v := range win {
					if want := cols.At(row, pos); math.Float64bits(v) != math.Float64bits(want) {
						t.Fatalf("trial %d %+v group %d pos %d row %d: table %v, im2col %v", trial, g, grp, pos, row, v, want)
					}
				}
			}
		}
	}
}

// TestGatherBitsMatchPack is the bit gather's property test: over
// random conv geometries and binary and graded input planes, every
// window plane built from the input plane's words equals Pack of the
// float-gathered window — same length, same words, and for binary
// inputs the same Binary flag; graded inputs give graded windows. It
// also checks that the trials exercised the run shapes the bit gather
// must get right: runs of a full word, and runs crossing a word
// boundary in the input plane and in the window.
func TestGatherBitsMatchPack(t *testing.T) {
	r := rng.New(13)
	var fullRuns, srcCross, dstCross int
	var in, wp, want spikeplane.Plane
	for trial := 0; trial < 400; trial++ {
		g := randomConvGeometry(r)
		binary := trial%2 == 0
		x := randomInput(r, g, binary)
		in.Pack(x.Data())
		if in.Binary() != binary {
			t.Fatalf("trial %d: input plane binary %v, want %v", trial, in.Binary(), binary)
		}
		gcIn := g.c / g.groups
		subLen := gcIn * g.h * g.w
		gt, err := newGatherTable(gcIn, g.h, g.w, g.kh, g.kw, g.stride, g.pad)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		win := make([]float64, gt.rfg)
		for grp := 0; grp < g.groups; grp++ {
			base := grp * subLen
			for pos := 0; pos < gt.npos(); pos++ {
				gt.gather(win, x.Data()[base:base+subLen], pos)
				want.Pack(win)
				gt.gatherBits(&wp, &in, base, pos)
				if !wp.EqualWords(&want) {
					t.Fatalf("trial %d %+v group %d pos %d: bit gather %x, Pack %x", trial, g, grp, pos, wp.WordSlice(), want.WordSlice())
				}
				if binary && wp.Binary() != want.Binary() || !binary && wp.Binary() {
					t.Fatalf("trial %d %+v group %d pos %d: Binary %v, Pack %v (input binary %v)", trial, g, grp, pos, wp.Binary(), want.Binary(), binary)
				}
				for _, run := range gt.runs[gt.start[pos]:gt.start[pos+1]] {
					s, d, n := base+int(run.src), int(run.dst), int(run.n)
					if n == spikeplane.WordBits {
						fullRuns++
					}
					if s>>6 != (s+n-1)>>6 {
						srcCross++
					}
					if d>>6 != (d+n-1)>>6 {
						dstCross++
					}
				}
			}
		}
	}
	if fullRuns == 0 || srcCross == 0 || dstCross == 0 {
		t.Fatalf("trials missed a run shape: %d full-word runs, %d crossing an input word, %d crossing a window word", fullRuns, srcCross, dstCross)
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

// BenchmarkConvWindow times forming every window of one spiking conv
// step at LeNet-5 conv1 (1×16×16, 5×5, pad 2) and conv2 (6×8×8, 5×5)
// geometry from a 20%-active binary input: the float gather followed by
// Pack against the bit gather straight from the input plane.
func BenchmarkConvWindow(b *testing.B) {
	for _, bc := range []struct {
		name            string
		c, h, w, k, pad int
	}{
		{"conv1", 1, 16, 16, 5, 2},
		{"conv2", 6, 8, 8, 5, 0},
	} {
		r := rng.New(5)
		x := tensor.New(bc.c, bc.h, bc.w)
		for i := range x.Data() {
			if r.Float64() < 0.2 {
				x.Data()[i] = 1
			}
		}
		var in, wp spikeplane.Plane
		in.Pack(x.Data())
		gt, err := newGatherTable(bc.c, bc.h, bc.w, bc.k, bc.k, 1, bc.pad)
		if err != nil {
			b.Fatal(err)
		}
		win := make([]float64, gt.rfg)
		b.Run(bc.name+"/gather+pack", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for pos := 0; pos < gt.npos(); pos++ {
					gt.gather(win, x.Data(), pos)
					wp.Pack(win)
				}
			}
		})
		b.Run(bc.name+"/bits", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for pos := 0; pos < gt.npos(); pos++ {
					gt.gatherBits(&wp, &in, 0, pos)
				}
			}
		})
	}
}
