// Package modelio serializes trained networks so that training, conversion
// and hardware evaluation can run in separate processes — the missing
// piece for using this repository as a deployment library rather than a
// single-process experiment.
//
// The format is a self-describing gob stream: an architecture description
// (layer kinds and hyperparameters) followed by every parameter tensor and
// the BatchNorm running statistics. Load rebuilds the network from the
// description and restores the weights, so files remain valid across
// refactors of the layer internals.
package modelio

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/nn"
	"repro/internal/rng"
)

// layerSpec is the serialized architecture of one layer.
type layerSpec struct {
	Kind string // conv, linear, relu, avgpool, maxpool, batchnorm, flatten
	Name string
	// Conv/Linear geometry.
	InC, OutC, KH, KW, Stride, Pad, Groups int
	In, Out                                int
	// Pool geometry.
	K, PoolStride int
	// ReLU ceiling.
	Clip float64
	// BatchNorm channels.
	C int
}

// fileFormat is the on-wire structure.
type fileFormat struct {
	Magic   string
	Version int
	NetName string
	Layers  []layerSpec
	// Tensors holds every parameter in network order, then per-BN
	// running mean/var pairs in layer order.
	Tensors [][]float64
	Shapes  [][]int
}

const (
	magic   = "nebula-model"
	version = 1
)

// Save writes a network to w.
func Save(w io.Writer, net *nn.Network) error {
	ff := fileFormat{Magic: magic, Version: version, NetName: net.Name()}
	for _, l := range net.Layers() {
		spec, err := specOf(l)
		if err != nil {
			return err
		}
		ff.Layers = append(ff.Layers, spec)
	}
	for _, p := range net.Params() {
		ff.Tensors = append(ff.Tensors, append([]float64(nil), p.Value.Data()...))
		ff.Shapes = append(ff.Shapes, append([]int(nil), p.Value.Shape()...))
	}
	for _, l := range net.Layers() {
		if bn, ok := l.(*nn.BatchNorm2D); ok {
			ff.Tensors = append(ff.Tensors, append([]float64(nil), bn.RunningMean.Data()...))
			ff.Shapes = append(ff.Shapes, []int{bn.C})
			ff.Tensors = append(ff.Tensors, append([]float64(nil), bn.RunningVar.Data()...))
			ff.Shapes = append(ff.Shapes, []int{bn.C})
		}
	}
	return gob.NewEncoder(w).Encode(ff)
}

func specOf(l nn.Layer) (layerSpec, error) {
	switch v := l.(type) {
	case *nn.Conv2D:
		return layerSpec{Kind: "conv", Name: v.Name(), InC: v.InC, OutC: v.OutC,
			KH: v.KH, KW: v.KW, Stride: v.Stride, Pad: v.Pad, Groups: v.Groups}, nil
	case *nn.Linear:
		return layerSpec{Kind: "linear", Name: v.Name(), In: v.In, Out: v.Out}, nil
	case *nn.ReLU:
		return layerSpec{Kind: "relu", Name: v.Name(), Clip: v.Clip}, nil
	case *nn.AvgPool2D:
		return layerSpec{Kind: "avgpool", Name: v.Name(), K: v.K, PoolStride: v.Stride}, nil
	case *nn.MaxPool2D:
		return layerSpec{Kind: "maxpool", Name: v.Name(), K: v.K, PoolStride: v.Stride}, nil
	case *nn.BatchNorm2D:
		return layerSpec{Kind: "batchnorm", Name: v.Name(), C: v.C}, nil
	case *nn.Flatten:
		return layerSpec{Kind: "flatten", Name: v.Name()}, nil
	}
	return layerSpec{}, fmt.Errorf("modelio: unsupported layer type %T", l)
}

// Load reads a network from r.
//
//nebula:test-support the only reader of the files nebula-train -save writes; the round-trip tests hold Save to it
func Load(r io.Reader) (*nn.Network, error) {
	var ff fileFormat
	if err := gob.NewDecoder(r).Decode(&ff); err != nil {
		return nil, fmt.Errorf("modelio: decode: %w", err)
	}
	if ff.Magic != magic {
		return nil, fmt.Errorf("modelio: not a nebula model file")
	}
	if ff.Version != version {
		return nil, fmt.Errorf("modelio: unsupported version %d", ff.Version)
	}
	net := nn.NewNetwork(ff.NetName)
	seed := rng.New(0) // initial weights are immediately overwritten
	for _, spec := range ff.Layers {
		l, err := buildLayer(spec, seed)
		if err != nil {
			return nil, err
		}
		net.Add(l)
	}
	idx := 0
	take := func(want []int) ([]float64, error) {
		if idx >= len(ff.Tensors) {
			return nil, fmt.Errorf("modelio: truncated tensor stream")
		}
		data := ff.Tensors[idx]
		shape := ff.Shapes[idx]
		idx++
		n := 1
		for _, d := range shape {
			n *= d
		}
		if n != len(data) {
			return nil, fmt.Errorf("modelio: tensor %d shape/data mismatch", idx-1)
		}
		return data, nil
	}
	for _, p := range net.Params() {
		data, err := take(p.Value.Shape())
		if err != nil {
			return nil, err
		}
		if len(data) != p.Value.Size() {
			return nil, fmt.Errorf("modelio: parameter %s size mismatch (%d vs %d)", p.Name, len(data), p.Value.Size())
		}
		copy(p.Value.Data(), data)
	}
	for _, l := range net.Layers() {
		if bn, ok := l.(*nn.BatchNorm2D); ok {
			mean, err := take([]int{bn.C})
			if err != nil {
				return nil, err
			}
			variance, err := take([]int{bn.C})
			if err != nil {
				return nil, err
			}
			copy(bn.RunningMean.Data(), mean)
			copy(bn.RunningVar.Data(), variance)
		}
	}
	if idx != len(ff.Tensors) {
		return nil, fmt.Errorf("modelio: %d trailing tensors", len(ff.Tensors)-idx)
	}
	return net, nil
}

func buildLayer(s layerSpec, seed *rng.Rand) (nn.Layer, error) {
	switch s.Kind {
	case "conv":
		return nn.NewConv2D(s.Name, s.InC, s.OutC, s.KH, s.KW, s.Stride, s.Pad, s.Groups, seed), nil
	case "linear":
		return nn.NewLinear(s.Name, s.In, s.Out, seed), nil
	case "relu":
		return nn.NewClippedReLU(s.Name, s.Clip), nil
	case "avgpool":
		return nn.NewAvgPool2D(s.Name, s.K, s.PoolStride), nil
	case "maxpool":
		return nn.NewMaxPool2D(s.Name, s.K, s.PoolStride), nil
	case "batchnorm":
		return nn.NewBatchNorm2D(s.Name, s.C), nil
	case "flatten":
		return nn.NewFlatten(s.Name), nil
	}
	return nil, fmt.Errorf("modelio: unknown layer kind %q", s.Kind)
}
