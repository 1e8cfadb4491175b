package models

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

func TestZooNetworksForward(t *testing.T) {
	r := rng.New(1)
	for name, build := range Zoo {
		net := build(3, 16, 10, r.Split())
		x := tensor.New(2, 3, 16, 16)
		for i := range x.Data() {
			x.Data()[i] = r.Float64()
		}
		y := net.Forward(x, false)
		if y.Dim(0) != 2 || y.Dim(1) != 10 {
			t.Fatalf("%s: output shape %v", name, y.Shape())
		}
	}
}

func TestZooNetworksTrainStep(t *testing.T) {
	// One backward pass through each network must not panic and must
	// produce finite gradients.
	r := rng.New(2)
	for name, build := range Zoo {
		net := build(1, 16, 4, r.Split())
		x := tensor.New(4, 1, 16, 16)
		for i := range x.Data() {
			x.Data()[i] = r.Float64()
		}
		y := net.Forward(x, true)
		g := tensor.New(y.Shape()...).Fill(0.1)
		net.ZeroGrad()
		net.Backward(g)
		for _, p := range net.Params() {
			for _, v := range p.Grad.Data() {
				if v != v { // NaN
					t.Fatalf("%s: NaN gradient in %s", name, p.Name)
				}
			}
		}
	}
}

func TestMLP3Structure(t *testing.T) {
	net := NewMLP3(1, 16, 10, rng.New(3))
	// flatten + 3 linear + 2 relu = 6 layers
	if len(net.Layers()) != 6 {
		t.Fatalf("mlp3 has %d layers", len(net.Layers()))
	}
}

func TestLayerShapeGeometry(t *testing.T) {
	l := conv("c", 3, 64, 3, 1, 1, 32, 32)
	if l.OutH() != 32 || l.OutW() != 32 {
		t.Fatalf("conv out %dx%d", l.OutH(), l.OutW())
	}
	if l.Rf() != 27 {
		t.Fatalf("conv Rf = %d", l.Rf())
	}
	if l.OutputNeurons() != 64*32*32 {
		t.Fatalf("conv outputs = %d", l.OutputNeurons())
	}

	d := dwconv("d", 128, 3, 2, 1, 16, 16)
	if d.Rf() != 9 {
		t.Fatalf("dw Rf = %d", d.Rf())
	}
	if d.OutH() != 8 {
		t.Fatalf("dw out %d", d.OutH())
	}

	f := fc("f", 512, 10)
	if f.Rf() != 512 || f.OutputNeurons() != 10 {
		t.Fatalf("fc geometry wrong: Rf=%d outputs=%d", f.Rf(), f.OutputNeurons())
	}
}

func TestFullVGG13Dimensions(t *testing.T) {
	w := FullVGG13(10, 300, 91.6, 90.05)
	weighted := w.WeightedLayers()
	if len(weighted) != 12 { // 10 conv + 2 fc
		t.Fatalf("vgg13 weighted layers = %d", len(weighted))
	}
	// Layer chaining: each conv layer's input channels must match the
	// previous weighted conv's output channels.
	if weighted[1].InC != weighted[0].OutC {
		t.Fatal("conv1_2 input mismatch")
	}
	// First layer Rf must be 27 as used in the paper's utilization
	// discussion ("first layer of VGG-Net will only use 27×64").
	if weighted[0].Rf() != 27 || weighted[0].OutC != 64 {
		t.Fatalf("vgg first layer Rf=%d OutC=%d", weighted[0].Rf(), weighted[0].OutC)
	}
}

func TestFullMobileNetAlternation(t *testing.T) {
	w := FullMobileNetV1(10, 500, 91, 81.08)
	weighted := w.WeightedLayers()
	// stem + 13*(dw+pw) + fc = 28
	if len(weighted) != 28 {
		t.Fatalf("mobilenet weighted layers = %d", len(weighted))
	}
	// Even-indexed layers (1-based even = paper's "even-numbered layers")
	// should be depthwise: layer 2,4,... in 1-based numbering.
	for i := 1; i < 27; i += 2 {
		if weighted[i].Kind != DWConv {
			t.Fatalf("layer %d kind = %v, want dwconv", i+1, weighted[i].Kind)
		}
	}
	for i := 2; i < 27; i += 2 {
		if weighted[i].Kind != Conv || weighted[i].K != 1 {
			t.Fatalf("layer %d should be pointwise conv", i+1)
		}
	}
}

func TestFullAlexNetFCSizes(t *testing.T) {
	w := FullAlexNet()
	var fcs []LayerShape
	for _, l := range w.Layers {
		if l.Kind == FC {
			fcs = append(fcs, l)
		}
	}
	if len(fcs) != 3 || fcs[0].InC != 9216 || fcs[2].OutC != 1000 {
		t.Fatalf("alexnet FC shapes wrong: %+v", fcs)
	}
	// conv1 on 224x224 with k=11 s=4 p=2 gives 55x55.
	if w.Layers[0].OutH() != 55 {
		t.Fatalf("conv1 out = %d", w.Layers[0].OutH())
	}
}

func TestPaperWorkloadsTableI(t *testing.T) {
	ws := PaperWorkloads()
	if len(ws) != 8 {
		t.Fatalf("expected 8 workloads, got %d", len(ws))
	}
	wantT := []int{50, 40, 500, 300, 1000, 1000, 100, 500}
	for i, w := range ws {
		if w.Timesteps != wantT[i] {
			t.Fatalf("%s timesteps = %d want %d", w.Name, w.Timesteps, wantT[i])
		}
		var macs int64
		for _, l := range w.WeightedLayers() {
			macs += layerMACs(l)
		}
		if macs <= 0 {
			t.Fatalf("%s has no MACs", w.Name)
		}
		// Spatial chaining sanity: every non-FC layer's output feeds the
		// next layer's input dims.
		for j := 0; j+1 < len(w.Layers); j++ {
			cur, next := w.Layers[j], w.Layers[j+1]
			if next.Kind == FC {
				continue
			}
			if cur.OutH() != next.InH || cur.OutW() != next.InW {
				t.Fatalf("%s: layer %s out %dx%d but %s in %dx%d",
					w.Name, cur.Name, cur.OutH(), cur.OutW(), next.Name, next.InH, next.InW)
			}
			if cur.OutC != next.InC {
				t.Fatalf("%s: channel chain broken at %s→%s", w.Name, cur.Name, next.Name)
			}
		}
	}
}

// layerMACs is a weighted layer's multiply-accumulate count per pass:
// every output neuron reads its receptive field once.
func layerMACs(l LayerShape) int64 { return int64(l.OutputNeurons()) * int64(l.Rf()) }

func TestVGGMACsDominatedByConv(t *testing.T) {
	w := FullVGG13(10, 300, 91.6, 90.05)
	var convMACs, fcMACs int64
	for _, l := range w.WeightedLayers() {
		if l.Kind == FC {
			fcMACs += layerMACs(l)
		} else {
			convMACs += layerMACs(l)
		}
	}
	if convMACs < 10*fcMACs {
		t.Fatalf("VGG conv MACs (%d) should dominate FC MACs (%d)", convMACs, fcMACs)
	}
}
