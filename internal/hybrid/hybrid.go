// Package hybrid implements the SNN-ANN hybrid models of §V-B of the
// NEBULA paper: a converted network is split so that the first part (near
// the input) runs in the spiking domain while the last k weighted layers
// run as a conventional ANN.
//
// At the split, an Accumulator Unit (AU, Fig. 6(c)) integrates the spike
// train of the last spiking stage over the evidence window and scales the
// resulting rate by that stage's activation factor λ, recovering a
// continuous activation estimate that feeds the ANN tail. This prevents
// the information loss of deep spike propagation while retaining the low
// instantaneous power of the spiking front (Fig. 17).
package hybrid

import (
	"fmt"

	"repro/internal/convert"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/snn"
	"repro/internal/tensor"
)

// Model is a hybrid SNN-ANN network.
type Model struct {
	Name string
	// Front is the spiking portion.
	Front *snn.Network
	// Folded is the full BN-free ANN; the tail runs layers
	// [TailStart, len) of it.
	Folded    *nn.Network
	TailStart int
	// LambdaSplit rescales accumulated rates back to activation units.
	LambdaSplit float64
	// NonSpiking is the number of weighted layers running in ANN mode.
	NonSpiking int
	// SpikingWeighted is the number of weighted layers running spiking.
	SpikingWeighted int
	Cfg             convert.Config
}

// Split cuts a converted network so its last nonSpiking weighted layers
// (including the read-out) run in the ANN domain. nonSpiking must be at
// least 1 (the read-out) and leave at least one weighted spiking layer.
func Split(c *convert.Converted, nonSpiking int) (*Model, error) {
	var weightedIdx []int // indices into c.Stages of weighted stages
	for i, s := range c.Stages {
		if s.Weighted {
			weightedIdx = append(weightedIdx, i)
		}
	}
	total := len(weightedIdx)
	if nonSpiking < 1 || nonSpiking >= total {
		return nil, fmt.Errorf("hybrid: nonSpiking must be in [1, %d), got %d", total, nonSpiking)
	}
	// The first ANN-domain weighted stage:
	firstTail := c.Stages[weightedIdx[total-nonSpiking]]
	// The spiking front runs every SNN layer before that stage. Skip
	// trailing stateless stages (flatten) from the front; the ANN tail's
	// own flatten handles reshaping.
	frontEnd := firstTail.SNNLayer // exclusive
	// λ at the split is the Lambda of the last IF stage before the cut.
	lambdaSplit := 1.0
	for _, s := range c.Stages {
		if s.SNNLayer < frontEnd && s.Kind != "flatten" {
			lambdaSplit = s.Lambda
		}
	}
	front := snn.NewNetwork(c.SNN.Name()+"-front", c.SNN.Layers[:frontEnd]...)
	return &Model{
		Name:            fmt.Sprintf("%s-hyb%d", c.SNN.Name(), nonSpiking),
		Front:           front,
		Folded:          c.Folded,
		TailStart:       firstTail.ANNStart,
		LambdaSplit:     lambdaSplit,
		NonSpiking:      nonSpiking,
		SpikingWeighted: total - nonSpiking,
		Cfg:             c.Cfg,
	}, nil
}

// RunResult summarizes one hybrid inference.
type RunResult struct {
	Output *tensor.Tensor
	// FrontSpikes is the total spike count in the spiking front
	// (including none from stateless stages).
	FrontSpikes float64
	// AccumulatedRate is the mean output rate at the AU.
	AccumulatedRate float64
	Timesteps       int
}

// Predict returns the argmax class.
func (r *RunResult) Predict() int { return r.Output.ArgMax() }

// Run performs hybrid inference on one image: T timesteps of the spiking
// front, AU accumulation, then a single ANN pass over the tail.
func (m *Model) Run(img *tensor.Tensor, T int, r *rng.Rand) *RunResult {
	m.Front.Reset()
	enc := snn.NewPoissonEncoder(m.Cfg.Gain, r)
	var acc *tensor.Tensor
	for t := 0; t < T; t++ {
		out := m.Front.Step(enc.Encode(img))
		if acc == nil {
			acc = tensor.New(out.Shape()...)
		}
		acc.AddInPlace(out)
	}
	// AU: spike count → rate → activation estimate (white "e" in Fig. 11).
	acc.ScaleInPlace(m.LambdaSplit / float64(T))

	// ANN tail on the recovered activations.
	x := acc.Reshape(append([]int{1}, acc.Shape()...)...)
	layers := m.Folded.Layers()
	for _, l := range layers[m.TailStart:] {
		x = l.Forward(x, false)
	}

	var frontSpikes float64
	for _, l := range m.Front.Layers {
		s, _ := l.Spikes()
		frontSpikes += s
	}
	return &RunResult{
		Output:          x.Reshape(x.Size()),
		FrontSpikes:     frontSpikes,
		AccumulatedRate: acc.Mean() / maxf(m.LambdaSplit, 1e-12),
		Timesteps:       T,
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Evaluate returns the hybrid model's accuracy over up to maxSamples.
func (m *Model) Evaluate(data *dataset.Dataset, T, maxSamples int, seed uint64) float64 {
	r := rng.New(seed)
	n := maxSamples
	if n > data.Len() {
		n = data.Len()
	}
	correct := 0
	for i := 0; i < n; i++ {
		img, label := data.Sample(i)
		if m.Run(img, T, r.Split()).Predict() == label {
			correct++
		}
	}
	return float64(correct) / float64(n)
}
