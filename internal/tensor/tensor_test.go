package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3)
	if x.Size() != 6 {
		t.Fatalf("size = %d", x.Size())
	}
	for _, v := range x.Data() {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestFromSliceSharesData(t *testing.T) {
	d := []float64{1, 2, 3, 4}
	x := FromSlice(d, 2, 2)
	d[0] = 9
	if x.At(0, 0) != 9 {
		t.Fatal("FromSlice must not copy")
	}
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(2, 3, 4)
	x.Set(42, 1, 2, 3)
	if x.At(1, 2, 3) != 42 {
		t.Fatal("At/Set round trip failed")
	}
	// row-major: offset of (1,2,3) in 2x3x4 is 1*12+2*4+3 = 23
	if x.Data()[23] != 42 {
		t.Fatal("row-major layout violated")
	}
}

func TestAtOutOfBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).At(2, 0)
}

// TestAtSetDoNotAllocate pins that the variadic index slice of At and
// Set stays on the caller's stack: offset's panics format a copy, so
// escape analysis does not move every call's index to the heap.
func TestAtSetDoNotAllocate(t *testing.T) {
	x := New(3, 4, 5)
	allocs := testing.AllocsPerRun(100, func() {
		x.Set(x.At(1, 2, 3)+1, 2, 3, 4)
	})
	if allocs != 0 {
		t.Fatalf("At/Set allocated %.0f times per call pair, want 0", allocs)
	}
}

// TestOffsetPanicMessages pins the index panics' text.
func TestOffsetPanicMessages(t *testing.T) {
	x := New(2, 3)
	for _, tc := range []struct {
		idx  []int
		want string
	}{
		{[]int{1}, "tensor: index [1] does not match shape [2 3]"},
		{[]int{1, 3}, "tensor: index [1 3] out of bounds for shape [2 3]"},
		{[]int{-1, 0}, "tensor: index [-1 0] out of bounds for shape [2 3]"},
	} {
		func() {
			defer func() {
				if got := recover(); got != tc.want {
					t.Errorf("At(%v) panicked with %v, want %q", tc.idx, got, tc.want)
				}
			}()
			x.At(tc.idx...)
		}()
	}
}

func TestReshapeView(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	y.Set(99, 0, 0)
	if x.At(0, 0) != 99 {
		t.Fatal("Reshape must be a view")
	}
	z := x.Reshape(-1, 2)
	if z.Dim(0) != 3 {
		t.Fatalf("inferred dim = %d", z.Dim(0))
	}
}

func TestReshapeBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 3).Reshape(4, 2)
}

func TestCloneIndependent(t *testing.T) {
	x := FromSlice([]float64{1, 2}, 2)
	y := x.Clone()
	y.Set(5, 0)
	if x.At(0) != 1 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{4, 5, 6}, 3)
	a.AddInPlace(b)
	want := []float64{5, 7, 9}
	for i, v := range a.Data() {
		if v != want[i] {
			t.Fatalf("add: got %v", a.Data())
		}
	}
	a.ScaleInPlace(0.5)
	if a.At(0) != 2.5 {
		t.Fatalf("scale: got %v", a.Data())
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2).AddInPlace(New(3))
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float64{-3, 1, 4, 2}, 4)
	if x.Sum() != 4 {
		t.Fatalf("Sum = %v", x.Sum())
	}
	if x.Mean() != 1 {
		t.Fatalf("Mean = %v", x.Mean())
	}
	if x.AbsMax() != 4 {
		t.Fatalf("AbsMax = %v", x.AbsMax())
	}
	if x.ArgMax() != 2 {
		t.Fatalf("ArgMax = %v", x.ArgMax())
	}
}

// dot returns the inner product of two same-shaped tensors.
func dot(a, b *Tensor) float64 {
	s := 0.0
	for i, v := range a.Data() {
		s += v * b.Data()[i]
	}
	return s
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, v := range c.Data() {
		if v != want[i] {
			t.Fatalf("MatMul got %v want %v", c.Data(), want)
		}
	}
}

func TestMatMulTransVariantsAgree(t *testing.T) {
	r := rng.New(5)
	randMat := func(m, n int) *Tensor {
		x := New(m, n)
		for i := range x.Data() {
			x.Data()[i] = r.NormFloat64()
		}
		return x
	}
	a := randMat(4, 6)
	b := randMat(6, 5)
	ref := MatMul(a, b)

	viaTransB := MatMulTransB(a, b.Transpose())
	viaTransA := MatMulTransA(a.Transpose(), b)
	for i := range ref.Data() {
		if !almostEqual(ref.Data()[i], viaTransB.Data()[i]) {
			t.Fatal("MatMulTransB disagrees with MatMul")
		}
		if !almostEqual(ref.Data()[i], viaTransA.Data()[i]) {
			t.Fatal("MatMulTransA disagrees with MatMul")
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	r := rng.New(8)
	x := New(3, 7)
	for i := range x.Data() {
		x.Data()[i] = r.Float64()
	}
	y := x.Transpose().Transpose()
	for i := range x.Data() {
		if x.Data()[i] != y.Data()[i] {
			t.Fatal("double transpose changed data")
		}
	}
}

func TestConvOutSize(t *testing.T) {
	cases := []struct{ in, k, s, p, want int }{
		{32, 3, 1, 1, 32},
		{32, 3, 2, 1, 16},
		{28, 5, 1, 0, 24},
		{4, 2, 2, 0, 2},
	}
	for _, c := range cases {
		if got := ConvOutSize(c.in, c.k, c.s, c.p); got != c.want {
			t.Fatalf("ConvOutSize(%d,%d,%d,%d) = %d, want %d", c.in, c.k, c.s, c.p, got, c.want)
		}
	}
}

// naiveConv computes a direct convolution for cross-checking im2col.
func naiveConv(img *Tensor, kernel *Tensor, stride, pad int) *Tensor {
	c, h, w := img.Dim(0), img.Dim(1), img.Dim(2)
	kc, kh, kw := kernel.Dim(0), kernel.Dim(1), kernel.Dim(2)
	if kc != c {
		panic("channel mismatch")
	}
	oh := ConvOutSize(h, kh, stride, pad)
	ow := ConvOutSize(w, kw, stride, pad)
	out := New(oh, ow)
	for oi := 0; oi < oh; oi++ {
		for oj := 0; oj < ow; oj++ {
			s := 0.0
			for ch := 0; ch < c; ch++ {
				for ki := 0; ki < kh; ki++ {
					for kj := 0; kj < kw; kj++ {
						ii := oi*stride + ki - pad
						jj := oj*stride + kj - pad
						if ii < 0 || ii >= h || jj < 0 || jj >= w {
							continue
						}
						s += img.At(ch, ii, jj) * kernel.At(ch, ki, kj)
					}
				}
			}
			out.Set(s, oi, oj)
		}
	}
	return out
}

func TestIm2ColMatchesNaiveConv(t *testing.T) {
	r := rng.New(21)
	for _, cfg := range []struct{ c, h, w, kh, kw, stride, pad int }{
		{1, 5, 5, 3, 3, 1, 0},
		{2, 6, 6, 3, 3, 1, 1},
		{3, 8, 7, 2, 4, 2, 1},
		{2, 5, 5, 5, 5, 1, 2},
	} {
		img := New(cfg.c, cfg.h, cfg.w)
		for i := range img.Data() {
			img.Data()[i] = r.NormFloat64()
		}
		kern := New(cfg.c, cfg.kh, cfg.kw)
		for i := range kern.Data() {
			kern.Data()[i] = r.NormFloat64()
		}
		cols := Im2Col(img, cfg.kh, cfg.kw, cfg.stride, cfg.pad)
		flatK := kern.Reshape(1, cfg.c*cfg.kh*cfg.kw)
		got := MatMul(flatK, cols)
		want := naiveConv(img, kern, cfg.stride, cfg.pad)
		for i := range want.Data() {
			if !almostEqual(got.Data()[i], want.Data()[i]) {
				t.Fatalf("cfg %+v: im2col conv mismatch at %d: %v vs %v", cfg, i, got.Data()[i], want.Data()[i])
			}
		}
	}
}

// TestCol2ImAdjoint verifies <Im2Col(x), y> == <x, Col2Im(y)>, the defining
// property of an adjoint pair, using random tensors.
func TestCol2ImAdjoint(t *testing.T) {
	r := rng.New(33)
	cfg := struct{ c, h, w, kh, kw, stride, pad int }{2, 6, 6, 3, 3, 2, 1}
	oh := ConvOutSize(cfg.h, cfg.kh, cfg.stride, cfg.pad)
	ow := ConvOutSize(cfg.w, cfg.kw, cfg.stride, cfg.pad)

	x := New(cfg.c, cfg.h, cfg.w)
	for i := range x.Data() {
		x.Data()[i] = r.NormFloat64()
	}
	y := New(cfg.c*cfg.kh*cfg.kw, oh*ow)
	for i := range y.Data() {
		y.Data()[i] = r.NormFloat64()
	}
	lhs := dot(Im2Col(x, cfg.kh, cfg.kw, cfg.stride, cfg.pad), y)
	rhs := dot(x, Col2Im(y, cfg.c, cfg.h, cfg.w, cfg.kh, cfg.kw, cfg.stride, cfg.pad))
	if math.Abs(lhs-rhs) > 1e-9 {
		t.Fatalf("adjoint identity violated: %v vs %v", lhs, rhs)
	}
}

func TestSlice4DView(t *testing.T) {
	x := New(2, 3, 4, 4)
	x.Set(7, 1, 2, 3, 3)
	v := x.Slice4D(1)
	if v.At(2, 3, 3) != 7 {
		t.Fatal("Slice4D lost data")
	}
	v.Set(8, 0, 0, 0)
	if x.At(1, 0, 0, 0) != 8 {
		t.Fatal("Slice4D must be a view")
	}
}

func TestRowView(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	row := x.Row(1)
	if row.At(0) != 3 || row.At(1) != 4 {
		t.Fatal("Row returned wrong data")
	}
}

func TestMatMulAssociativityProperty(t *testing.T) {
	r := rng.New(55)
	if err := quick.Check(func(seed uint32) bool {
		rr := rng.New(uint64(seed))
		mk := func(m, n int) *Tensor {
			x := New(m, n)
			for i := range x.Data() {
				x.Data()[i] = rr.NormFloat64()
			}
			return x
		}
		a, b, c := mk(3, 4), mk(4, 2), mk(2, 5)
		left := MatMul(MatMul(a, b), c)
		right := MatMul(a, MatMul(b, c))
		for i := range left.Data() {
			if math.Abs(left.Data()[i]-right.Data()[i]) > 1e-8 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 20, Rand: nil}); err != nil {
		t.Fatal(err)
	}
	_ = r
}

func BenchmarkMatMul128(b *testing.B) {
	r := rng.New(1)
	a := New(128, 128)
	c := New(128, 128)
	for i := range a.Data() {
		a.Data()[i] = r.Float64()
		c.Data()[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MatMul(a, c)
	}
}

func BenchmarkIm2Col(b *testing.B) {
	r := rng.New(1)
	img := New(64, 32, 32)
	for i := range img.Data() {
		img.Data()[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Im2Col(img, 3, 3, 1, 1)
	}
}
