package isaac

import (
	"testing"

	"repro/internal/energy"
	"repro/internal/mapping"
	"repro/internal/models"
)

func TestColumnsPerWeight(t *testing.T) {
	m := NewModel()
	if m.columnsPerWeight() != 2 {
		t.Fatalf("4-bit weights on 2-bit cells need 2 columns, got %d", m.columnsPerWeight())
	}
}

func TestLayerEnergyComponentsPositive(t *testing.T) {
	m := NewModel()
	l := models.LayerShape{Name: "c", Kind: models.Conv, InC: 64, OutC: 64, K: 3, Stride: 1, Pad: 1, InH: 16, InW: 16}
	e := m.Layer(l)
	if e.CrossbarJ <= 0 || e.DACJ <= 0 || e.ADCJ <= 0 || e.DigitalJ <= 0 || e.BufferJ <= 0 {
		t.Fatalf("component missing: %+v", e)
	}
}

func TestPoolLayerFree(t *testing.T) {
	m := NewModel()
	pool := models.LayerShape{Kind: models.AvgPool, InC: 64, OutC: 64, K: 2, Stride: 2, InH: 32, InW: 32}
	if m.Layer(pool).Total() != 0 {
		t.Fatal("pooling must not consume crossbar energy")
	}
}

func TestADCDominates(t *testing.T) {
	// §III: "their ADC operation in every cycle is a major power
	// bottleneck" — the ADC must be the single largest component for a
	// typical dense layer.
	m := NewModel()
	l := models.LayerShape{Name: "c", Kind: models.Conv, InC: 128, OutC: 128, K: 3, Stride: 1, Pad: 1, InH: 16, InW: 16}
	e := m.Layer(l)
	for _, c := range []float64{e.CrossbarJ, e.DACJ, e.DigitalJ, e.BufferJ} {
		if e.ADCJ <= c {
			t.Fatalf("ADC (%v) not dominant in %+v", e.ADCJ, e)
		}
	}
}

func TestBitSerialCostsFourCycles(t *testing.T) {
	m4 := NewModel()
	m16 := NewModel()
	m16.P.InputBits = 16
	l := models.LayerShape{Name: "c", Kind: models.Conv, InC: 64, OutC: 64, K: 3, Stride: 1, Pad: 1, InH: 8, InW: 8}
	e4 := m4.Layer(l).Total()
	e16 := m16.Layer(l).Total()
	if e16/e4 < 3.9 || e16/e4 > 4.1 {
		t.Fatalf("16-bit/4-bit energy ratio %v, want ≈4 (bit-serial)", e16/e4)
	}
}

func TestNetworkRatiosMatchPaperBands(t *testing.T) {
	// Figs. 12–13(a): ISAAC consumes ≈2.8× (AlexNet) to ≈7.9× (MobileNet)
	// more energy than NEBULA-ANN, with the ordering preserved.
	im := NewModel()
	em := energy.NewModel()
	ratio := func(w models.Workload) float64 {
		np := mapping.MapWorkload(w)
		return im.NetworkTotal(w) / em.ANNNetwork(np).EnergyJ
	}
	alex := ratio(models.FullAlexNet())
	mobile := ratio(models.FullMobileNetV1(10, 500, 91, 81.08))
	vgg := ratio(models.FullVGG13(10, 300, 91.6, 90.05))
	if alex < 1.5 || alex > 6 {
		t.Fatalf("AlexNet ratio %v outside ≈2.8× band", alex)
	}
	if mobile < 5 || mobile > 14 {
		t.Fatalf("MobileNet ratio %v outside ≈7.9× band", mobile)
	}
	if !(alex < vgg && vgg < mobile) {
		t.Fatalf("ordering broken: alex=%v vgg=%v mobile=%v", alex, vgg, mobile)
	}
}

func TestDepthwiseSavesMoreThanPointwise(t *testing.T) {
	// Fig. 12: "energy savings in the even-numbered layers ...
	// depthwise-separable convolutions ... are generally higher as
	// compared to the savings in the odd-numbered layers".
	im := NewModel()
	em := energy.NewModel()
	w := models.FullMobileNetV1(10, 500, 91, 81.08)
	np := mapping.MapWorkload(w)
	ann := em.ANNNetwork(np)
	layers := im.Network(w)
	var dwSum, pwSum float64
	var dwN, pwN int
	for i, l := range w.WeightedLayers() {
		if ann.Layers[i].Total() == 0 {
			continue
		}
		r := layers[i].Total() / ann.Layers[i].Total()
		switch {
		case l.Kind == models.DWConv:
			dwSum += r
			dwN++
		case l.Kind == models.Conv && l.K == 1:
			pwSum += r
			pwN++
		}
	}
	if dwSum/float64(dwN) <= pwSum/float64(pwN) {
		t.Fatalf("depthwise savings (%v) not above pointwise (%v)",
			dwSum/float64(dwN), pwSum/float64(pwN))
	}
}

func TestNetworkTotalsSumLayers(t *testing.T) {
	m := NewModel()
	w := models.FullLeNet5()
	sum := 0.0
	for _, e := range m.Network(w) {
		sum += e.Total()
	}
	if got := m.NetworkTotal(w); got != sum {
		t.Fatalf("NetworkTotal %v != sum %v", got, sum)
	}
}
