package snn

import (
	"testing"

	"repro/internal/tensor"
)

// TestLayerAccessors pins the Layer interface surface every layer kind
// exposes — Name, Reset, Spikes — plus the exported free-standing
// IFState constructor the session engine uses for per-run membranes.
func TestLayerAccessors(t *testing.T) {
	w := tensor.New(2, 3)
	for i := range w.Data() {
		w.Data()[i] = 1
	}
	b := tensor.New(2)
	d := NewDense("d", w, b, 1.0, ResetToZero)
	cw := tensor.New(2, 1, 3, 3)
	c := NewConv("c", cw, nil, 1, 1, 1, 1.0, ResetToZero)
	p := NewAvgPoolIF("p", 2, 2, 1.0, ResetToZero)
	f := NewFlatten("f")
	o := NewOutput("o", w, b)

	for _, tc := range []struct {
		want  string
		layer Layer
	}{
		{"d", d}, {"c", c}, {"p", p}, {"f", f}, {"o", o},
	} {
		if got := tc.layer.Name(); got != tc.want {
			t.Fatalf("Name() = %q, want %q", got, tc.want)
		}
	}

	// A spiking step accumulates counts; Reset clears them.
	in := tensor.New(3)
	for i := range in.Data() {
		in.Data()[i] = 5
	}
	d.Step(in)
	if n, total := d.Spikes(); n == 0 || total != 2 {
		t.Fatalf("dense spikes after hot input = %v/%d, want >0/2", n, total)
	}
	d.Reset()
	if n, _ := d.Spikes(); n != 0 {
		t.Fatalf("dense spikes after Reset = %v, want 0", n)
	}

	c.Reset()
	if n, _ := c.Spikes(); n != 0 {
		t.Fatalf("conv spikes after Reset = %v, want 0", n)
	}
	p.Reset()
	f.Reset()
	if n, total := f.Spikes(); n != 0 || total != 0 {
		t.Fatalf("flatten spikes = %v/%d, want 0/0", n, total)
	}
	o.Step(in)
	o.Reset()
	if _, total := o.Spikes(); total != 2 {
		t.Fatalf("output neuron count = %d, want 2", total)
	}

	// The free-standing membrane bank fires like a layer-owned one.
	s := NewIFState(1.0, ResetToZero)
	spikes := s.fire(in)
	if spikes.Size() != 3 {
		t.Fatalf("fire returned %d spikes, want 3", spikes.Size())
	}
	fired := false
	for _, v := range spikes.Data() {
		if v == 1 {
			fired = true
		}
	}
	if !fired {
		t.Fatal("hot input never fired the free-standing IF bank")
	}
	s.Reset()
}
