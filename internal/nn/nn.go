// Package nn implements the artificial-neural-network substrate of the
// NEBULA reproduction: layers with forward and backward passes, parameter
// handling, and a Sequential container.
//
// The package supports exactly the layer types the paper's workloads need —
// convolution (dense and depthwise-separable), fully-connected, ReLU,
// average/max pooling, batch normalization and flatten — and is trained with
// plain SGD from package train. Activations are NCHW for convolutional
// layers and N×D for fully-connected layers.
package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Param is a trainable parameter together with its gradient accumulator.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// NewParam allocates a parameter and matching zero gradient.
func NewParam(name string, value *tensor.Tensor) *Param {
	return &Param{Name: name, Value: value, Grad: tensor.New(value.Shape()...)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Fill(0) }

// Layer is a differentiable network stage. Forward must be called before
// Backward; layers cache whatever they need for the backward pass.
type Layer interface {
	// Name identifies the layer for reporting and mapping.
	Name() string
	// Forward computes the layer output for a batch. The training flag
	// selects batch statistics in BatchNorm and similar layers.
	Forward(x *tensor.Tensor, training bool) *tensor.Tensor
	// Backward propagates the loss gradient, accumulating parameter
	// gradients and returning the gradient with respect to the input.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's trainable parameters (possibly empty).
	Params() []*Param
}

// Shaper is implemented by layers that can report their output shape for a
// given input shape (excluding the batch dimension). The mapper uses it to
// derive per-layer dimensions without running data through the network.
type Shaper interface {
	OutShape(in []int) []int
}

// Network is a sequential composition of layers.
type Network struct {
	name   string
	layers []Layer
}

// NewNetwork creates an empty sequential network with the given name.
func NewNetwork(name string, layers ...Layer) *Network {
	return &Network{name: name, layers: layers}
}

// Name returns the network's name.
func (n *Network) Name() string { return n.name }

// Add appends a layer.
func (n *Network) Add(l Layer) *Network {
	n.layers = append(n.layers, l)
	return n
}

// Layers returns the layer list (not a copy).
func (n *Network) Layers() []Layer { return n.layers }

// Forward runs the full network.
func (n *Network) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	for _, l := range n.layers {
		x = l.Forward(x, training)
	}
	return x
}

// ForwardCapture runs the network and returns the output of every layer.
// Index i holds the output of layer i. The conversion and correlation
// analyses use these per-layer activations.
func (n *Network) ForwardCapture(x *tensor.Tensor, training bool) []*tensor.Tensor {
	outs := make([]*tensor.Tensor, len(n.layers))
	for i, l := range n.layers {
		x = l.Forward(x, training)
		outs[i] = x
	}
	return outs
}

// Backward propagates a gradient through all layers in reverse.
func (n *Network) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(n.layers) - 1; i >= 0; i-- {
		grad = n.layers[i].Backward(grad)
	}
	return grad
}

// Params returns all trainable parameters of the network.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ZeroGrad clears all parameter gradients.
func (n *Network) ZeroGrad() {
	for _, p := range n.Params() {
		p.ZeroGrad()
	}
}

// OutShape propagates an input shape (excluding batch) through all layers.
// It panics if any layer does not implement Shaper.
func (n *Network) OutShape(in []int) []int {
	for _, l := range n.layers {
		s, ok := l.(Shaper)
		if !ok {
			panic(fmt.Sprintf("nn: layer %s cannot report its output shape", l.Name()))
		}
		in = s.OutShape(in)
	}
	return in
}
