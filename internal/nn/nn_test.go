package nn

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// numericalGrad estimates d loss / d x[i] by central differences for a
// scalar-valued function of a tensor.
func numericalGrad(f func() float64, x *tensor.Tensor, i int) float64 {
	const h = 1e-5
	orig := x.Data()[i]
	x.Data()[i] = orig + h
	plus := f()
	x.Data()[i] = orig - h
	minus := f()
	x.Data()[i] = orig
	return (plus - minus) / (2 * h)
}

// checkLayerGradients verifies the analytic input and parameter gradients
// of a layer against numerical differentiation, using sum-of-squares/2 of
// the output as the scalar loss so that dL/dy = y.
func checkLayerGradients(t *testing.T, layer Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	loss := func() float64 {
		y := layer.Forward(x, true)
		s := 0.0
		for _, v := range y.Data() {
			s += v * v
		}
		return s / 2
	}
	y := layer.Forward(x, true)
	for _, p := range layer.Params() {
		p.ZeroGrad()
	}
	dx := layer.Backward(y.Clone())

	for i := 0; i < x.Size(); i += maxInt(1, x.Size()/17) {
		want := numericalGrad(loss, x, i)
		// Recompute forward state after numerical probing.
		y = layer.Forward(x, true)
		got := dx.Data()[i]
		if math.Abs(got-want) > tol*(1+math.Abs(want)) {
			t.Fatalf("input grad [%d]: analytic %v vs numeric %v", i, got, want)
		}
	}
	// Re-establish gradients cleanly (numerical probing ran extra forwards).
	y = layer.Forward(x, true)
	for _, p := range layer.Params() {
		p.ZeroGrad()
	}
	layer.Backward(y.Clone())
	for _, p := range layer.Params() {
		v := p.Value
		for i := 0; i < v.Size(); i += maxInt(1, v.Size()/13) {
			want := numericalGrad(loss, v, i)
			got := p.Grad.Data()[i]
			if math.Abs(got-want) > tol*(1+math.Abs(want)) {
				t.Fatalf("%s grad [%d]: analytic %v vs numeric %v", p.Name, i, got, want)
			}
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func randTensor(r *rng.Rand, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	for i := range x.Data() {
		x.Data()[i] = r.NormFloat64()
	}
	return x
}

func TestLinearGradients(t *testing.T) {
	r := rng.New(1)
	l := NewLinear("fc", 7, 5, r)
	checkLayerGradients(t, l, randTensor(r, 3, 7), 1e-4)
}

func TestConv2DGradients(t *testing.T) {
	r := rng.New(2)
	c := NewConv2D("conv", 3, 4, 3, 3, 1, 1, 1, r)
	checkLayerGradients(t, c, randTensor(r, 2, 3, 5, 5), 1e-4)
}

func TestConv2DStridedGradients(t *testing.T) {
	r := rng.New(3)
	c := NewConv2D("conv", 2, 3, 3, 3, 2, 1, 1, r)
	checkLayerGradients(t, c, randTensor(r, 2, 2, 7, 7), 1e-4)
}

func TestDepthwiseConvGradients(t *testing.T) {
	r := rng.New(4)
	c := NewConv2D("dwconv", 4, 4, 3, 3, 1, 1, 4, r)
	checkLayerGradients(t, c, randTensor(r, 2, 4, 5, 5), 1e-4)
}

func TestGroupedConvGradients(t *testing.T) {
	r := rng.New(5)
	c := NewConv2D("gconv", 4, 6, 3, 3, 1, 0, 2, r)
	checkLayerGradients(t, c, randTensor(r, 2, 4, 6, 6), 1e-4)
}

func TestReLUGradients(t *testing.T) {
	r := rng.New(6)
	l := NewReLU("relu")
	checkLayerGradients(t, l, randTensor(r, 4, 9), 1e-4)
}

func TestClippedReLUForward(t *testing.T) {
	l := NewClippedReLU("crelu", 1.0)
	x := tensor.FromSlice([]float64{-1, 0.5, 2}, 1, 3)
	y := l.Forward(x, false)
	want := []float64{0, 0.5, 1}
	for i, v := range y.Data() {
		if v != want[i] {
			t.Fatalf("clipped relu: got %v want %v", y.Data(), want)
		}
	}
}

func TestClippedReLUGradientZeroBeyondClip(t *testing.T) {
	l := NewClippedReLU("crelu", 1.0)
	x := tensor.FromSlice([]float64{-1, 0.5, 2}, 1, 3)
	l.Forward(x, true)
	g := l.Backward(tensor.FromSlice([]float64{1, 1, 1}, 1, 3))
	want := []float64{0, 1, 0}
	for i, v := range g.Data() {
		if v != want[i] {
			t.Fatalf("clipped relu grad: got %v want %v", g.Data(), want)
		}
	}
}

func TestAvgPoolGradients(t *testing.T) {
	r := rng.New(7)
	p := NewAvgPool2D("pool", 2, 2)
	checkLayerGradients(t, p, randTensor(r, 2, 3, 4, 4), 1e-4)
}

func TestMaxPoolForward(t *testing.T) {
	p := NewMaxPool2D("pool", 2, 2)
	x := tensor.FromSlice([]float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	y := p.Forward(x, false)
	want := []float64{6, 8, 14, 16}
	for i, v := range y.Data() {
		if v != want[i] {
			t.Fatalf("maxpool: got %v want %v", y.Data(), want)
		}
	}
}

func TestMaxPoolBackwardRoutesToArgmax(t *testing.T) {
	p := NewMaxPool2D("pool", 2, 2)
	x := tensor.FromSlice([]float64{
		1, 2,
		3, 4,
	}, 1, 1, 2, 2)
	p.Forward(x, true)
	g := p.Backward(tensor.FromSlice([]float64{10}, 1, 1, 1, 1))
	want := []float64{0, 0, 0, 10}
	for i, v := range g.Data() {
		if v != want[i] {
			t.Fatalf("maxpool grad: got %v want %v", g.Data(), want)
		}
	}
}

func TestBatchNormGradients(t *testing.T) {
	r := rng.New(8)
	b := NewBatchNorm2D("bn", 3)
	checkLayerGradients(t, b, randTensor(r, 4, 3, 3, 3), 1e-3)
}

func TestBatchNormNormalizes(t *testing.T) {
	r := rng.New(9)
	b := NewBatchNorm2D("bn", 2)
	x := randTensor(r, 8, 2, 4, 4)
	// Shift channel 1 strongly.
	for i := 0; i < 8; i++ {
		img := x.Slice4D(i)
		for j := 0; j < 16; j++ {
			img.Data()[16+j] += 10
		}
	}
	y := b.Forward(x, true)
	// Per-channel mean of the output should be ~0 and variance ~1.
	for ch := 0; ch < 2; ch++ {
		var s, sq float64
		n := 0
		for i := 0; i < 8; i++ {
			img := y.Slice4D(i)
			for j := 0; j < 16; j++ {
				v := img.Data()[ch*16+j]
				s += v
				sq += v * v
				n++
			}
		}
		mean := s / float64(n)
		variance := sq/float64(n) - mean*mean
		if math.Abs(mean) > 1e-8 {
			t.Fatalf("channel %d mean %v", ch, mean)
		}
		if math.Abs(variance-1) > 1e-3 {
			t.Fatalf("channel %d variance %v", ch, variance)
		}
	}
}

func TestBatchNormInferenceUsesRunningStats(t *testing.T) {
	r := rng.New(10)
	b := NewBatchNorm2D("bn", 1)
	// Train on shifted data so running stats move away from (0, 1).
	for i := 0; i < 50; i++ {
		x := randTensor(r, 8, 1, 2, 2)
		for i, v := range x.Data() {
			x.Data()[i] = v*3 + 5
		}
		b.Forward(x, true)
	}
	// At inference a constant input should map deterministically via the
	// running stats, independent of batch composition.
	x1 := tensor.New(1, 1, 2, 2).Fill(5)
	x2 := tensor.New(3, 1, 2, 2).Fill(5)
	y1 := b.Forward(x1, false)
	y2 := b.Forward(x2, false)
	if math.Abs(y1.Data()[0]-y2.Data()[0]) > 1e-12 {
		t.Fatal("inference output depends on batch")
	}
	// Mean input (≈5) should map near 0.
	if math.Abs(y1.Data()[0]) > 0.5 {
		t.Fatalf("running stats off: f(5) = %v", y1.Data()[0])
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	r := rng.New(11)
	f := NewFlatten("flat")
	x := randTensor(r, 2, 3, 4, 5)
	y := f.Forward(x, true)
	if y.Dim(0) != 2 || y.Dim(1) != 60 {
		t.Fatalf("flatten shape %v", y.Shape())
	}
	g := f.Backward(y)
	if !tensor.SameShape(g, x) {
		t.Fatalf("backward shape %v", g.Shape())
	}
}

func TestSoftmaxCrossEntropyGradient(t *testing.T) {
	r := rng.New(12)
	logits := randTensor(r, 3, 5)
	labels := []int{1, 4, 0}
	_, grad := SoftmaxCrossEntropy(logits, labels)
	for i := 0; i < logits.Size(); i++ {
		want := numericalGrad(func() float64 {
			l, _ := SoftmaxCrossEntropy(logits, labels)
			return l
		}, logits, i)
		if math.Abs(grad.Data()[i]-want) > 1e-6 {
			t.Fatalf("xent grad [%d]: %v vs %v", i, grad.Data()[i], want)
		}
	}
}

func TestNetworkForwardBackwardShapes(t *testing.T) {
	r := rng.New(14)
	net := NewNetwork("tiny",
		NewConv2D("c1", 1, 4, 3, 3, 1, 1, 1, r),
		NewReLU("r1"),
		NewAvgPool2D("p1", 2, 2),
		NewFlatten("flat"),
		NewLinear("fc", 4*4*4, 3, r),
	)
	x := randTensor(r, 2, 1, 8, 8)
	y := net.Forward(x, true)
	if y.Dim(0) != 2 || y.Dim(1) != 3 {
		t.Fatalf("network out shape %v", y.Shape())
	}
	_, grad := SoftmaxCrossEntropy(y, []int{0, 2})
	dx := net.Backward(grad)
	if !tensor.SameShape(dx, x) {
		t.Fatalf("network dx shape %v", dx.Shape())
	}
	shape := net.OutShape([]int{1, 8, 8})
	if len(shape) != 1 || shape[0] != 3 {
		t.Fatalf("OutShape = %v", shape)
	}
}

func TestForwardCaptureLayerCount(t *testing.T) {
	r := rng.New(15)
	net := NewNetwork("cap",
		NewLinear("fc1", 4, 8, r),
		NewReLU("r1"),
		NewLinear("fc2", 8, 2, r),
	)
	outs := net.ForwardCapture(randTensor(r, 1, 4), false)
	if len(outs) != 3 {
		t.Fatalf("captured %d outputs", len(outs))
	}
	if outs[2].Dim(1) != 2 {
		t.Fatalf("last capture shape %v", outs[2].Shape())
	}
}
