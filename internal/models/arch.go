package models

import "fmt"

// LayerKind classifies a weighted layer for mapping and energy accounting.
type LayerKind int

// Layer kinds. Pooling layers are folded into the activity model (they
// carry no crossbar weights) but are kept in the shape lists so layer
// numbering matches the paper's figures.
const (
	Conv LayerKind = iota
	DWConv
	FC
	AvgPool
)

// String implements fmt.Stringer.
func (k LayerKind) String() string {
	switch k {
	case Conv:
		return "conv"
	case DWConv:
		return "dwconv"
	case FC:
		return "fc"
	case AvgPool:
		return "avgpool"
	}
	return fmt.Sprintf("LayerKind(%d)", int(k))
}

// LayerShape describes one layer of a full-size paper workload: enough
// geometry to compute receptive fields, output sizes, MAC counts and
// crossbar mappings without any weights.
type LayerShape struct {
	Name           string
	Kind           LayerKind
	InC, OutC      int
	K, Stride, Pad int
	InH, InW       int
}

// OutH returns the output height.
func (l LayerShape) OutH() int {
	if l.Kind == FC {
		return 1
	}
	return (l.InH+2*l.Pad-l.K)/l.Stride + 1
}

// OutW returns the output width.
func (l LayerShape) OutW() int {
	if l.Kind == FC {
		return 1
	}
	return (l.InW+2*l.Pad-l.K)/l.Stride + 1
}

// Rf returns the receptive-field size: the number of crossbar rows one
// output kernel occupies when flattened per Fig. 5 (KH·KW·C; for a
// depthwise convolution each output channel sees only its own input
// channel; for FC it is the full fan-in).
func (l LayerShape) Rf() int {
	switch l.Kind {
	case Conv:
		return l.K * l.K * l.InC
	case DWConv:
		return l.K * l.K
	case FC:
		return l.InC
	case AvgPool:
		return l.K * l.K
	}
	return 0
}

// Kernels returns the number of independent output kernels (crossbar
// columns needed): output channels for conv layers, output neurons for FC.
func (l LayerShape) Kernels() int { return l.OutC }

// OutputNeurons returns the number of output activations.
func (l LayerShape) OutputNeurons() int { return l.OutC * l.OutH() * l.OutW() }

// InputNeurons returns the number of input activations.
func (l LayerShape) InputNeurons() int { return l.InC * l.InH * l.InW }

// Workload is a full-size benchmark: an ordered list of layers plus the
// SNN integration window from Table I.
type Workload struct {
	Name      string
	Dataset   string
	Layers    []LayerShape
	Timesteps int // SNN evidence-integration window (Table I)
	// ANNAccuracy and SNNAccuracy record the paper's Table I numbers for
	// reporting alongside reproduced results.
	ANNAccuracy, SNNAccuracy float64
}

// WeightedLayers returns only the layers that carry crossbar weights.
func (w Workload) WeightedLayers() []LayerShape {
	var out []LayerShape
	for _, l := range w.Layers {
		if l.Kind != AvgPool {
			out = append(out, l)
		}
	}
	return out
}

// conv is a LayerShape constructor shorthand used by the workload tables.
func conv(name string, inC, outC, k, stride, pad, inH, inW int) LayerShape {
	return LayerShape{Name: name, Kind: Conv, InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad, InH: inH, InW: inW}
}

func dwconv(name string, c, k, stride, pad, inH, inW int) LayerShape {
	return LayerShape{Name: name, Kind: DWConv, InC: c, OutC: c, K: k, Stride: stride, Pad: pad, InH: inH, InW: inW}
}

func fc(name string, in, out int) LayerShape {
	return LayerShape{Name: name, Kind: FC, InC: in, OutC: out, InH: 1, InW: 1}
}

func pool(name string, c, k, inH, inW int) LayerShape {
	return LayerShape{Name: name, Kind: AvgPool, InC: c, OutC: c, K: k, Stride: k, InH: inH, InW: inW}
}

// FullMLP3 is the paper's 3-layer MLP on MNIST (784-500-300-10).
func FullMLP3() Workload {
	return Workload{
		Name: "mlp3", Dataset: "MNIST", Timesteps: 50,
		ANNAccuracy: 96.81, SNNAccuracy: 95.75,
		Layers: []LayerShape{
			fc("fc1", 784, 500),
			fc("fc2", 500, 300),
			fc("fc3", 300, 10),
		},
	}
}

// FullLeNet5 is LeNet-5 on 28×28 MNIST.
func FullLeNet5() Workload {
	return Workload{
		Name: "lenet5", Dataset: "MNIST", Timesteps: 40,
		ANNAccuracy: 99.12, SNNAccuracy: 98.56,
		Layers: []LayerShape{
			conv("conv1", 1, 6, 5, 1, 2, 28, 28),
			pool("pool1", 6, 2, 28, 28),
			conv("conv2", 6, 16, 5, 1, 0, 14, 14),
			pool("pool2", 16, 2, 10, 10),
			fc("fc1", 400, 120),
			fc("fc2", 120, 84),
			fc("fc3", 84, 10),
		},
	}
}

// FullVGG13 is VGG-13 on 32×32 CIFAR inputs with the standard channel
// progression 64-128-256-512-512 and a compact CIFAR classifier head.
func FullVGG13(classes, timesteps int, annAcc, snnAcc float64) Workload {
	name := "vgg13-cifar10"
	ds := "CIFAR-10"
	if classes == 100 {
		name = "vgg13-cifar100"
		ds = "CIFAR-100"
	}
	return Workload{
		Name: name, Dataset: ds, Timesteps: timesteps,
		ANNAccuracy: annAcc, SNNAccuracy: snnAcc,
		Layers: []LayerShape{
			conv("conv1_1", 3, 64, 3, 1, 1, 32, 32),
			conv("conv1_2", 64, 64, 3, 1, 1, 32, 32),
			pool("pool1", 64, 2, 32, 32),
			conv("conv2_1", 64, 128, 3, 1, 1, 16, 16),
			conv("conv2_2", 128, 128, 3, 1, 1, 16, 16),
			pool("pool2", 128, 2, 16, 16),
			conv("conv3_1", 128, 256, 3, 1, 1, 8, 8),
			conv("conv3_2", 256, 256, 3, 1, 1, 8, 8),
			pool("pool3", 256, 2, 8, 8),
			conv("conv4_1", 256, 512, 3, 1, 1, 4, 4),
			conv("conv4_2", 512, 512, 3, 1, 1, 4, 4),
			pool("pool4", 512, 2, 4, 4),
			conv("conv5_1", 512, 512, 3, 1, 1, 2, 2),
			conv("conv5_2", 512, 512, 3, 1, 1, 2, 2),
			pool("pool5", 512, 2, 2, 2),
			fc("fc1", 512, 512),
			fc("fc2", 512, classes),
		},
	}
}

// FullMobileNetV1 is MobileNet-v1 at width 1.0 on 32×32 CIFAR inputs: a
// dense stem followed by 13 depthwise-separable blocks. Odd-numbered
// weighted layers are pointwise, even-numbered depthwise, matching the
// alternating energy signature of Fig. 12.
func FullMobileNetV1(classes, timesteps int, annAcc, snnAcc float64) Workload {
	name := "mobilenet-cifar10"
	ds := "CIFAR-10"
	if classes == 100 {
		name = "mobilenet-cifar100"
		ds = "CIFAR-100"
	}
	type blk struct{ out, stride int }
	blocks := []blk{
		{64, 1}, {128, 2}, {128, 1}, {256, 2}, {256, 1}, {512, 2},
		{512, 1}, {512, 1}, {512, 1}, {512, 1}, {512, 1}, {1024, 2}, {1024, 1},
	}
	layers := []LayerShape{conv("conv0", 3, 32, 3, 1, 1, 32, 32)}
	c, size := 32, 32
	for i, b := range blocks {
		outSize := size
		if b.stride == 2 {
			outSize = (size + 1) / 2
		}
		layers = append(layers, dwconv(fmt.Sprintf("dw%d", i+1), c, 3, b.stride, 1, size, size))
		layers = append(layers, conv(fmt.Sprintf("pw%d", i+1), c, b.out, 1, 1, 0, outSize, outSize))
		c, size = b.out, outSize
	}
	layers = append(layers, pool("gap", c, size, size, size))
	layers = append(layers, fc("fc", c, classes))
	return Workload{
		Name: name, Dataset: ds, Timesteps: timesteps,
		ANNAccuracy: annAcc, SNNAccuracy: snnAcc,
		Layers: layers,
	}
}

// FullSVHNNet is the paper's 12-layer SVHN network on 32×32 inputs.
func FullSVHNNet() Workload {
	return Workload{
		Name: "svhn-net", Dataset: "SVHN", Timesteps: 100,
		ANNAccuracy: 94.96, SNNAccuracy: 94.48,
		Layers: []LayerShape{
			conv("conv1", 3, 64, 3, 1, 1, 32, 32),
			conv("conv2", 64, 64, 3, 1, 1, 32, 32),
			pool("pool1", 64, 2, 32, 32),
			conv("conv3", 64, 128, 3, 1, 1, 16, 16),
			conv("conv4", 128, 128, 3, 1, 1, 16, 16),
			pool("pool2", 128, 2, 16, 16),
			conv("conv5", 128, 256, 3, 1, 1, 8, 8),
			conv("conv6", 256, 256, 3, 1, 1, 8, 8),
			pool("pool3", 256, 2, 8, 8),
			fc("fc1", 4096, 1024),
			fc("fc2", 1024, 512),
			fc("fc3", 512, 10),
		},
	}
}

// FullAlexNet is AlexNet on 224×224 ImageNet inputs.
func FullAlexNet() Workload {
	return Workload{
		Name: "alexnet", Dataset: "ImageNet", Timesteps: 500,
		ANNAccuracy: 51, SNNAccuracy: 50,
		Layers: []LayerShape{
			conv("conv1", 3, 96, 11, 4, 2, 224, 224),
			pool("pool1", 96, 2, 55, 55),
			conv("conv2", 96, 256, 5, 1, 2, 27, 27),
			pool("pool2", 256, 2, 27, 27),
			conv("conv3", 256, 384, 3, 1, 1, 13, 13),
			conv("conv4", 384, 384, 3, 1, 1, 13, 13),
			conv("conv5", 384, 256, 3, 1, 1, 13, 13),
			pool("pool3", 256, 2, 13, 13),
			fc("fc1", 9216, 4096),
			fc("fc2", 4096, 4096),
			fc("fc3", 4096, 1000),
		},
	}
}

// PaperWorkloads returns the eight benchmark rows of Table I in order.
func PaperWorkloads() []Workload {
	return []Workload{
		FullMLP3(),
		FullLeNet5(),
		FullMobileNetV1(10, 500, 91.00, 81.08),
		FullVGG13(10, 300, 91.60, 90.05),
		FullMobileNetV1(100, 1000, 66.06, 56.88),
		FullVGG13(100, 1000, 71.50, 68.32),
		FullSVHNNet(),
		FullAlexNet(),
	}
}
