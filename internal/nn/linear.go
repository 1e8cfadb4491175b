package nn

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// Linear is a fully-connected layer computing y = xWᵀ + b for a batch of
// row vectors.
type Linear struct {
	name    string
	In, Out int
	Weight  *Param // (Out, In)
	Bias    *Param // (Out)
	lastIn  *tensor.Tensor
}

// NewLinear constructs a fully-connected layer with He-initialized weights.
func NewLinear(name string, in, out int, r *rng.Rand) *Linear {
	w := tensor.New(out, in)
	HeInit(w, in, r)
	return &Linear{
		name: name, In: in, Out: out,
		Weight: NewParam(name+".weight", w),
		Bias:   NewParam(name+".bias", tensor.New(out)),
	}
}

// Name implements Layer.
func (l *Linear) Name() string { return l.name }

// Params implements Layer.
func (l *Linear) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// OutShape implements Shaper.
func (l *Linear) OutShape(in []int) []int {
	size := 1
	for _, d := range in {
		size *= d
	}
	if size != l.In {
		panic(fmt.Sprintf("nn: %s expects %d inputs, got shape %v", l.name, l.In, in))
	}
	return []int{l.Out}
}

// Forward implements Layer. A 4-D input is flattened automatically.
func (l *Linear) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	if x.NDim() != 2 {
		x = x.Reshape(x.Dim(0), -1)
	}
	if x.Dim(1) != l.In {
		panic(fmt.Sprintf("nn: %s got %v, want N×%d", l.name, x.Shape(), l.In))
	}
	l.lastIn = x
	out := tensor.MatMulTransB(x, l.Weight.Value) // N×Out
	bd := l.Bias.Value.Data()
	for i := 0; i < out.Dim(0); i++ {
		row := out.Row(i).Data()
		for j := range row {
			row[j] += bd[j]
		}
	}
	return out
}

// Backward implements Layer.
func (l *Linear) Backward(grad *tensor.Tensor) *tensor.Tensor {
	x := l.lastIn
	if x == nil {
		panic("nn: Linear.Backward before Forward")
	}
	// dW += gradᵀ · x ; dB += column sums of grad ; dX = grad · W
	dw := tensor.MatMulTransA(grad, x) // Out×In
	l.Weight.Grad.AddInPlace(dw)
	bg := l.Bias.Grad.Data()
	for i := 0; i < grad.Dim(0); i++ {
		row := grad.Row(i).Data()
		for j, v := range row {
			bg[j] += v
		}
	}
	return tensor.MatMul(grad, l.Weight.Value) // N×In
}

// Flatten reshapes N×C×H×W activations to N×(C*H*W). It has no parameters.
type Flatten struct {
	name      string
	lastShape []int
}

// NewFlatten constructs a flatten layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

// Name implements Layer.
func (f *Flatten) Name() string { return f.name }

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// OutShape implements Shaper.
func (f *Flatten) OutShape(in []int) []int {
	size := 1
	for _, d := range in {
		size *= d
	}
	return []int{size}
}

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	f.lastShape = append([]int(nil), x.Shape()...)
	return x.Reshape(x.Dim(0), -1)
}

// Backward implements Layer.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return grad.Reshape(f.lastShape...)
}
