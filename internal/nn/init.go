package nn

import (
	"math"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// HeInit fills w with zero-mean gaussian values of standard deviation
// sqrt(2/fanIn), the standard initialization for ReLU networks.
func HeInit(w *tensor.Tensor, fanIn int, r *rng.Rand) {
	std := math.Sqrt(2.0 / float64(fanIn))
	d := w.Data()
	for i := range d {
		d[i] = r.NormFloat64() * std
	}
}
