package arch

import (
	"repro/internal/tensor"
)

// AccumulatorUnit is the digital spike-count accumulator of Fig. 6(c):
// an adder and a register per neuron, integrating the boundary spike
// train over the evidence window and scaling it back to activation units
// for the ANN cores.
type AccumulatorUnit struct {
	// Lambda is the activation scale of the boundary stage.
	Lambda float64
	counts *tensor.Tensor
	steps  int
	// Adds counts adder operations (for energy cross-checks).
	Adds int64
}

// NewAccumulatorUnit allocates an AU for the given boundary shape.
func NewAccumulatorUnit(lambda float64) *AccumulatorUnit {
	return &AccumulatorUnit{Lambda: lambda}
}

// Accumulate folds one timestep of boundary spikes into the registers.
//
//nebula:hotpath
func (au *AccumulatorUnit) Accumulate(spikes *tensor.Tensor) {
	if au.counts == nil || !tensor.SameShape(au.counts, spikes) {
		//nebula:coldpath first timestep, or a new boundary shape
		au.counts = tensor.New(spikes.Shape()...)
	}
	cd, sd := au.counts.Data(), spikes.Data()
	for i, v := range sd {
		if v != 0 {
			cd[i] += v
			au.Adds++
		}
	}
	au.steps++
}

// ReadInto writes the recovered activation estimate, rate × λ, into
// dst when dst has the registers' shape (a fresh tensor otherwise); it
// returns the tensor written, or nil before the first timestep.
func (au *AccumulatorUnit) ReadInto(dst *tensor.Tensor) *tensor.Tensor {
	if au.counts == nil || au.steps == 0 {
		return nil
	}
	if dst == nil || !tensor.SameShape(dst, au.counts) {
		dst = tensor.New(au.counts.Shape()...)
	}
	copy(dst.Data(), au.counts.Data())
	dst.ScaleInPlace(au.Lambda / float64(au.steps))
	return dst
}

// Reset clears the registers, keeping their storage for the next input.
func (au *AccumulatorUnit) Reset() {
	if au.counts != nil {
		clear(au.counts.Data())
	}
	au.steps = 0
	au.Adds = 0
}
