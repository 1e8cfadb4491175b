package snn

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

func TestLeakDecaysMembrane(t *testing.T) {
	s := newIFState(1.0, ResetBySubtraction)
	s.Leak = 0.5
	in := tensor.FromSlice([]float64{0.4}, 1)
	s.fire(in)
	// After one step: u = 0.4. Next zero-input step: u = 0.2.
	zero := tensor.FromSlice([]float64{0}, 1)
	s.fire(zero)
	if math.Abs(s.u.Data()[0]-0.2) > 1e-12 {
		t.Fatalf("leaked membrane %v, want 0.2", s.u.Data()[0])
	}
}

func TestLeakReducesFiringRate(t *testing.T) {
	rate := func(leak float64) float64 {
		s := newIFState(1.0, ResetBySubtraction)
		s.Leak = leak
		in := tensor.FromSlice([]float64{0.3}, 1)
		spikes := 0.0
		for i := 0; i < 500; i++ {
			spikes += s.fire(in).Data()[0]
		}
		return spikes / 500
	}
	if rate(0.8) >= rate(1.0) {
		t.Fatalf("leak did not reduce firing: %v vs %v", rate(0.8), rate(1.0))
	}
}

func TestNoLeakByDefault(t *testing.T) {
	// The conversion pipeline depends on pure IF dynamics.
	s := newIFState(1.0, ResetBySubtraction)
	if s.Leak != 1 {
		t.Fatalf("default leak %v, want 1 (no leak)", s.Leak)
	}
	if s.Refractory != 0 {
		t.Fatalf("default refractory %v, want 0", s.Refractory)
	}
}

func TestRefractoryBlocksIntegration(t *testing.T) {
	s := newIFState(1.0, ResetBySubtraction)
	s.Refractory = 2
	in := tensor.FromSlice([]float64{1.0}, 1)
	out := s.fire(in) // fires immediately
	if out.Data()[0] != 1 {
		t.Fatal("no initial spike")
	}
	// Next two steps are refractory: no spikes, no integration.
	for i := 0; i < 2; i++ {
		if s.fire(in).Data()[0] != 0 {
			t.Fatalf("spiked during refractory step %d", i)
		}
		if s.u.Data()[0] != 0 {
			t.Fatalf("integrated during refractory step %d", i)
		}
	}
	// Third step fires again.
	if s.fire(in).Data()[0] != 1 {
		t.Fatal("did not recover after refractory period")
	}
}

func TestRefractoryCapsRate(t *testing.T) {
	// With refractory R, the max rate is 1/(R+1).
	s := newIFState(1.0, ResetBySubtraction)
	s.Refractory = 3
	in := tensor.FromSlice([]float64{10}, 1) // always suprathreshold
	spikes := 0.0
	const T = 400
	for i := 0; i < T; i++ {
		spikes += s.fire(in).Data()[0]
	}
	maxRate := 1.0 / 4
	if got := spikes / T; math.Abs(got-maxRate) > 0.01 {
		t.Fatalf("rate %v, want ≈%v", got, maxRate)
	}
}
