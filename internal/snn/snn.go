// Package snn implements the spiking-neural-network substrate: linear
// integrate-and-fire (IF) neurons (Eq. 2 of the paper), Poisson rate
// encoding of inputs, spiking convolutional/dense/pooling layers, and a
// time-stepped network simulator that records the spike statistics the
// architecture-level energy model consumes.
//
// The simulator follows the rate-encoding framework of §II-A: a neuron's
// activation value is represented by the number of spikes it emits over an
// integration window of T timesteps. IF neurons carry no leak and no
// refractory period, matching the conversion method of §V-A.
package snn

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/spikeplane"
	"repro/internal/tensor"
)

// ResetMode selects what happens to the membrane potential when a neuron
// fires.
type ResetMode int

const (
	// ResetBySubtraction subtracts the threshold, preserving the residual
	// charge (Rueckauer et al.); this is the default for converted SNNs.
	ResetBySubtraction ResetMode = iota
	// ResetToZero clamps the membrane back to the resting potential, as in
	// the classical IF description of §II-A.
	ResetToZero
)

// Layer is one stage of a spiking network operating on a single sample.
// Step consumes the input at one timestep and returns the layer output at
// that timestep. Stateful layers accumulate membrane potential between
// Step calls until Reset.
type Layer interface {
	Name() string
	// Reset clears membrane state and spike counters.
	Reset()
	// Step advances one timestep.
	Step(in *tensor.Tensor) *tensor.Tensor
	// Spikes returns the cumulative spike count since Reset and the
	// number of neurons in the layer (0 neurons for stateless stages).
	Spikes() (count float64, neurons int)
}

// IFState is the shared integrate-and-fire machinery used by every
// stateful spiking layer.
//
// The conversion pipeline uses pure IF dynamics (no leak, no refractory
// period, §II-A), but the paper notes the proposal "can be easily
// extended to incorporate such additional characteristics"; Leak and
// Refractory expose those extensions for brain-emulation experiments.
type IFState struct {
	VTh  float64
	Mode ResetMode
	// Leak is the fraction of membrane potential retained each timestep
	// (1 = no leak, the conversion default; 0.9 = 10% leak per step).
	Leak float64
	// Refractory is the number of timesteps a neuron ignores input after
	// firing (0 = none, the conversion default).
	Refractory int

	u     *tensor.Tensor
	count float64
	// cumulative per-neuron spike counts, for rate read-out
	perNeuron *tensor.Tensor
	// refractoryLeft tracks per-neuron remaining refractory steps.
	refractoryLeft []int
	// fired records whether the bank has integrated since the last
	// Reset (Rates reports nil until it has).
	fired bool
}

// newIFState allocates IF state for the given activation shape.
func newIFState(vth float64, mode ResetMode) *IFState {
	return &IFState{VTh: vth, Mode: mode, Leak: 1}
}

// NewIFState allocates a free-standing IF membrane bank. Layer structs own
// one implicitly; per-run execution state (the arch session engine) owns
// its banks explicitly so concurrent inferences never share membranes.
func NewIFState(vth float64, mode ResetMode) *IFState {
	return newIFState(vth, mode)
}

// Fire integrates one timestep of input current and returns the binary
// spike tensor — the exported form of the integrate-and-fire update for
// callers that manage IF state per run instead of per layer.
func (s *IFState) Fire(current *tensor.Tensor) *tensor.Tensor {
	return s.fire(current)
}

// Reset clears membrane and counters. The banks are zeroed in place, so
// a state reused across inputs of one shape allocates only once.
func (s *IFState) Reset() {
	if s.u != nil {
		clear(s.u.Data())
		clear(s.perNeuron.Data())
		clear(s.refractoryLeft)
	}
	s.fired = false
	s.count = 0
}

// fire integrates the input current and returns the binary spike tensor.
func (s *IFState) fire(current *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(current.Shape()...)
	s.FireInto(out, current)
	return out
}

// FireInto is Fire writing the spikes into out, a caller-owned tensor
// of the current's size: every element is assigned (1 or 0), so
// per-timestep callers reuse one output buffer.
//
//nebula:hotpath
func (s *IFState) FireInto(out, current *tensor.Tensor) {
	if s.u == nil || !tensor.SameShape(s.u, current) {
		//nebula:coldpath first step, or a new activation shape
		s.u, s.perNeuron, s.refractoryLeft = tensor.New(current.Shape()...), tensor.New(current.Shape()...), make([]int, current.Size())
	}
	s.fired = true
	ud, cd, od, pd := s.u.Data(), current.Data(), out.Data(), s.perNeuron.Data()
	od = od[:len(ud)] // out must hold one value per neuron
	leak := s.Leak
	if leak <= 0 || leak > 1 {
		leak = 1
	}
	for i := range ud {
		od[i] = 0
		if s.refractoryLeft[i] > 0 {
			s.refractoryLeft[i]--
			continue
		}
		ud[i] = ud[i]*leak + cd[i]
		if ud[i] >= s.VTh {
			od[i] = 1
			pd[i]++
			s.count++
			if s.Mode == ResetBySubtraction {
				ud[i] -= s.VTh
			} else {
				ud[i] = 0
			}
			s.refractoryLeft[i] = s.Refractory
		}
	}
}

// Rates returns per-neuron firing rates (spike count / timesteps). It
// returns nil before the first Step.
func (s *IFState) Rates(timesteps int) *tensor.Tensor {
	if !s.fired {
		return nil
	}
	out := s.perNeuron.Clone()
	out.ScaleInPlace(1 / float64(timesteps))
	return out
}

// Dense is a fully-connected spiking layer: u += Wx + b each timestep.
type Dense struct {
	name string
	W    *tensor.Tensor // out×in
	B    *tensor.Tensor // out
	IF   *IFState
}

// NewDense constructs a spiking dense layer with threshold vth.
func NewDense(name string, w, b *tensor.Tensor, vth float64, mode ResetMode) *Dense {
	return &Dense{name: name, W: w, B: b, IF: newIFState(vth, mode)}
}

// Name implements Layer.
func (d *Dense) Name() string { return d.name }

// Reset implements Layer.
func (d *Dense) Reset() { d.IF.Reset() }

// Spikes implements Layer.
func (d *Dense) Spikes() (float64, int) { return d.IF.count, d.W.Dim(0) }

// Step implements Layer. The input may be any shape with W.Dim(1) elements.
func (d *Dense) Step(in *tensor.Tensor) *tensor.Tensor {
	flat := in.Reshape(1, -1)
	if flat.Dim(1) != d.W.Dim(1) {
		panic(fmt.Sprintf("snn: %s got %d inputs, want %d", d.name, flat.Dim(1), d.W.Dim(1)))
	}
	current := tensor.MatMulTransB(flat, d.W) // 1×out
	if d.B != nil {
		current.Row(0).AddInPlace(d.B)
	}
	return d.IF.fire(current.Reshape(d.W.Dim(0)))
}

// Conv is a spiking convolution layer. Each timestep it convolves the
// incoming spike map with its (possibly grouped) kernel and integrates the
// result into the membrane.
type Conv struct {
	name                string
	W                   *tensor.Tensor // outC×(inC/groups)×K×K
	B                   *tensor.Tensor // outC
	Stride, Pad, Groups int
	IF                  *IFState
	neurons             int
}

// NewConv constructs a spiking convolution with threshold vth.
func NewConv(name string, w, b *tensor.Tensor, stride, pad, groups int, vth float64, mode ResetMode) *Conv {
	return &Conv{name: name, W: w, B: b, Stride: stride, Pad: pad, Groups: groups, IF: newIFState(vth, mode)}
}

// Name implements Layer.
func (c *Conv) Name() string { return c.name }

// Reset implements Layer.
func (c *Conv) Reset() { c.IF.Reset() }

// Spikes implements Layer.
func (c *Conv) Spikes() (float64, int) { return c.IF.count, c.neurons }

// Step implements Layer. Input is a C×H×W spike map.
func (c *Conv) Step(in *tensor.Tensor) *tensor.Tensor {
	outC := c.W.Dim(0)
	kh, kw := c.W.Dim(2), c.W.Dim(3)
	gcIn := c.W.Dim(1)
	gcOut := outC / c.Groups
	h, w := in.Dim(1), in.Dim(2)
	oh := tensor.ConvOutSize(h, kh, c.Stride, c.Pad)
	ow := tensor.ConvOutSize(w, kw, c.Stride, c.Pad)
	current := tensor.New(outC, oh, ow)
	wFlat := c.W.Reshape(outC, gcIn*kh*kw)
	for g := 0; g < c.Groups; g++ {
		sub := tensor.FromSlice(in.Data()[g*gcIn*h*w:(g+1)*gcIn*h*w], gcIn, h, w)
		cols := tensor.Im2Col(sub, kh, kw, c.Stride, c.Pad)
		wg := tensor.FromSlice(wFlat.Data()[g*gcOut*gcIn*kh*kw:(g+1)*gcOut*gcIn*kh*kw], gcOut, gcIn*kh*kw)
		res := tensor.MatMul(wg, cols)
		copy(current.Data()[g*gcOut*oh*ow:(g+1)*gcOut*oh*ow], res.Data())
	}
	if c.B != nil {
		bd := c.B.Data()
		cd := current.Data()
		for ch := 0; ch < outC; ch++ {
			base := ch * oh * ow
			for j := 0; j < oh*ow; j++ {
				cd[base+j] += bd[ch]
			}
		}
	}
	c.neurons = current.Size()
	return c.IF.fire(current)
}

// AvgPoolIF is an average-pooling stage followed by its own IF neuron
// layer, matching the paper's conversion rule of inserting an IF layer
// after every pooling layer so that the whole network stays spiking.
type AvgPoolIF struct {
	name      string
	K, Stride int
	IF        *IFState
	neurons   int
}

// NewAvgPoolIF constructs the pooling+IF stage. The IF threshold is 1 by
// construction after weight normalization.
func NewAvgPoolIF(name string, k, stride int, vth float64, mode ResetMode) *AvgPoolIF {
	return &AvgPoolIF{name: name, K: k, Stride: stride, IF: newIFState(vth, mode)}
}

// Name implements Layer.
func (p *AvgPoolIF) Name() string { return p.name }

// Reset implements Layer.
func (p *AvgPoolIF) Reset() { p.IF.Reset() }

// Spikes implements Layer.
func (p *AvgPoolIF) Spikes() (float64, int) { return p.IF.count, p.neurons }

// Step implements Layer.
func (p *AvgPoolIF) Step(in *tensor.Tensor) *tensor.Tensor {
	pooled := AvgPool(in, p.K, p.Stride)
	p.neurons = pooled.Size()
	return p.IF.fire(pooled)
}

// AvgPool average-pools a (C, H, W) tensor with a k×k window — the pure
// datapath half of AvgPoolIF, shared with the chip simulator's NU pooling
// (spiking mode pairs it with a per-run IFState; ANN mode uses it alone).
func AvgPool(in *tensor.Tensor, k, stride int) *tensor.Tensor {
	oh := tensor.ConvOutSize(in.Dim(1), k, stride, 0)
	ow := tensor.ConvOutSize(in.Dim(2), k, stride, 0)
	pooled := tensor.New(in.Dim(0), oh, ow)
	AvgPoolInto(pooled, in, k, stride)
	return pooled
}

// AvgPoolInto is AvgPool writing into a caller-owned (C, OH, OW)
// destination, so per-timestep callers reuse one buffer. Every element
// of dst is assigned.
//
//nebula:hotpath
func AvgPoolInto(dst, in *tensor.Tensor, k, stride int) {
	c, h, w := in.Dim(0), in.Dim(1), in.Dim(2)
	oh := tensor.ConvOutSize(h, k, stride, 0)
	ow := tensor.ConvOutSize(w, k, stride, 0)
	if dst.Size() != c*oh*ow {
		//nebula:lint-ignore panic-audit a mis-sized destination is a caller bug, like a shape mismatch in tensor arithmetic
		panic("snn: AvgPoolInto destination size does not match the pooled shape")
	}
	inv := 1.0 / float64(k*k)
	id, pd := in.Data(), dst.Data()
	for ch := 0; ch < c; ch++ {
		inBase := ch * h * w
		outBase := ch * oh * ow
		for oi := 0; oi < oh; oi++ {
			for oj := 0; oj < ow; oj++ {
				s := 0.0
				for ki := 0; ki < k; ki++ {
					rb := inBase + (oi*stride+ki)*w + oj*stride
					for kj := 0; kj < k; kj++ {
						s += id[rb+kj]
					}
				}
				pd[outBase+oi*ow+oj] = s * inv
			}
		}
	}
}

// Flatten reshapes spikes to a vector; it is stateless.
type Flatten struct{ name string }

// NewFlatten constructs a flatten stage.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

// Name implements Layer.
func (f *Flatten) Name() string { return f.name }

// Reset implements Layer.
func (f *Flatten) Reset() {}

// Spikes implements Layer.
func (f *Flatten) Spikes() (float64, int) { return 0, 0 }

// Step implements Layer.
func (f *Flatten) Step(in *tensor.Tensor) *tensor.Tensor {
	return in.Reshape(in.Size())
}

// Output is the terminal accumulator: it integrates incoming currents
// without firing, so the class decision can read membrane potentials (the
// standard read-out for converted SNNs' final layer).
type Output struct {
	name string
	W    *tensor.Tensor
	B    *tensor.Tensor
	u    *tensor.Tensor
}

// NewOutput constructs the non-firing output accumulator.
func NewOutput(name string, w, b *tensor.Tensor) *Output {
	return &Output{name: name, W: w, B: b}
}

// Name implements Layer.
func (o *Output) Name() string { return o.name }

// Reset implements Layer.
func (o *Output) Reset() { o.u = nil }

// Spikes implements Layer.
func (o *Output) Spikes() (float64, int) { return 0, o.W.Dim(0) }

// Step implements Layer. It returns the accumulated membrane potential.
func (o *Output) Step(in *tensor.Tensor) *tensor.Tensor {
	flat := in.Reshape(1, -1)
	current := tensor.MatMulTransB(flat, o.W)
	if o.B != nil {
		current.Row(0).AddInPlace(o.B)
	}
	cur := current.Reshape(o.W.Dim(0))
	if o.u == nil {
		o.u = tensor.New(cur.Shape()...)
	}
	o.u.AddInPlace(cur)
	return o.u.Clone()
}

// Potentials returns the accumulated output membrane potentials.
func (o *Output) Potentials() *tensor.Tensor {
	if o.u == nil {
		return nil
	}
	return o.u.Clone()
}

// PoissonEncoder converts pixel intensities in [0,1] into Bernoulli spike
// trains with per-timestep firing probability Gain·intensity, the
// rate-encoded Poisson approximation of §V-A.
type PoissonEncoder struct {
	Gain float64
	R    *rng.Rand
}

// NewPoissonEncoder constructs an encoder with the given gain and RNG.
func NewPoissonEncoder(gain float64, r *rng.Rand) *PoissonEncoder {
	return &PoissonEncoder{Gain: gain, R: r}
}

// Encode returns a binary spike tensor for one timestep.
func (e *PoissonEncoder) Encode(img *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(img.Shape()...)
	e.EncodeInto(out, img)
	return out
}

// EncodeInto writes one timestep into a caller-provided tensor of the
// image's shape, drawing exactly the same Bernoulli stream as Encode:
// zero-probability pixels draw nothing (the p > 0 short-circuit), so a
// loop of EncodeInto calls is bitwise identical to a loop of Encode
// calls on the same stream.
//
//nebula:hotpath
func (e *PoissonEncoder) EncodeInto(dst, img *tensor.Tensor) {
	od := dst.Data()
	for i, v := range img.Data() {
		p := v * e.Gain
		if p > 1 {
			p = 1
		}
		if p > 0 && e.R.Bernoulli(p) {
			od[i] = 1
		} else {
			od[i] = 0
		}
	}
}

// EncodeIntoPlane is EncodeInto additionally building the packed spike
// plane of the emitted timestep during the same walk, drawing the same
// Bernoulli stream. Spikes are exactly 1.0, so the plane stays binary
// and is bitwise what Pack(dst) would produce — without the engine
// re-scanning the dense vector.
//
//nebula:hotpath
func (e *PoissonEncoder) EncodeIntoPlane(dst *tensor.Tensor, pl *spikeplane.Plane, img *tensor.Tensor) {
	od := dst.Data()
	pl.Reset(len(od))
	for i, v := range img.Data() {
		p := v * e.Gain
		if p > 1 {
			p = 1
		}
		if p > 0 && e.R.Bernoulli(p) {
			od[i] = 1
			pl.Set(i)
		} else {
			od[i] = 0
		}
	}
}

// DirectEncoder presents pixel intensities as constant analog input
// currents instead of stochastic spike trains — the "analog input layer"
// trick of Rueckauer et al. that removes input sampling noise and reaches
// a given accuracy in fewer timesteps. The first weighted layer's crossbar
// receives graded drive (NEBULA's ANN-style multi-level drivers feeding an
// otherwise spiking pipeline).
type DirectEncoder struct {
	Gain float64
}

// NewDirectEncoder constructs a direct encoder.
func NewDirectEncoder(gain float64) *DirectEncoder { return &DirectEncoder{Gain: gain} }

// Encode returns the scaled intensities (identical every timestep).
func (e *DirectEncoder) Encode(img *tensor.Tensor) *tensor.Tensor {
	out := img.Clone()
	out.ScaleInPlace(e.Gain)
	return out
}

// EncodeInto writes the scaled intensities into a caller-provided
// tensor of the image's shape. No RNG is involved.
//
//nebula:hotpath
func (e *DirectEncoder) EncodeInto(dst, img *tensor.Tensor) {
	od := dst.Data()
	for i, v := range img.Data() {
		od[i] = v * e.Gain
	}
}

// Encoder produces the network input for one timestep.
type Encoder interface {
	Encode(img *tensor.Tensor) *tensor.Tensor
}

// IntoEncoder is the allocation-free extension of Encoder: EncodeInto
// fills a caller-provided tensor instead of allocating one per
// timestep, consuming the encoder's RNG stream exactly as Encode
// would. The session engine uses it to recycle one input buffer
// across all timesteps of a run.
type IntoEncoder interface {
	Encoder
	EncodeInto(dst, img *tensor.Tensor)
}

// PlaneEncoder is the event-driven extension of IntoEncoder: the
// encoder emits the packed spike plane of each timestep alongside the
// dense vector, from the same RNG stream, so the session engine's
// event path starts its plane chain without a Pack re-scan.
type PlaneEncoder interface {
	IntoEncoder
	EncodeIntoPlane(dst *tensor.Tensor, pl *spikeplane.Plane, img *tensor.Tensor)
}

// CountSpikes counts the spike events (nonzero entries) of one encoded
// timestep — the quantity the observability layer attributes to the
// input stage. Graded inputs (DirectEncoder) count driven entries.
func CountSpikes(t *tensor.Tensor) int64 {
	var n int64
	for _, v := range t.Data() {
		if v != 0 {
			n++
		}
	}
	return n
}

// Network is a feed-forward spiking network over a single sample.
type Network struct {
	NameStr string
	Layers  []Layer
}

// NewNetwork constructs a spiking network.
func NewNetwork(name string, layers ...Layer) *Network {
	return &Network{NameStr: name, Layers: layers}
}

// Name returns the network name.
func (n *Network) Name() string { return n.NameStr }

// Reset clears all layer state.
func (n *Network) Reset() {
	for _, l := range n.Layers {
		l.Reset()
	}
}

// Step advances the whole network one timestep.
func (n *Network) Step(in *tensor.Tensor) *tensor.Tensor {
	for _, l := range n.Layers {
		in = l.Step(in)
	}
	return in
}

// RunResult summarizes one inference run.
type RunResult struct {
	// Output is the final accumulated read-out (class scores).
	Output *tensor.Tensor
	// Timesteps is the number of simulated steps.
	Timesteps int
	// LayerSpikes[i] is the cumulative spike count of layer i.
	LayerSpikes []float64
	// LayerNeurons[i] is the neuron count of layer i (0 for stateless).
	LayerNeurons []int
	// InputSpikes counts encoder spikes over the run.
	InputSpikes float64
	// InputNeurons is the input dimensionality.
	InputNeurons int
}

// Predict returns the argmax class of the final read-out.
func (r *RunResult) Predict() int { return r.Output.ArgMax() }

// ActivityPerLayer returns average spikes per neuron per timestep for each
// stateful layer, the quantity plotted in Fig. 4.
func (r *RunResult) ActivityPerLayer() []float64 {
	var out []float64
	for i, s := range r.LayerSpikes {
		n := r.LayerNeurons[i]
		if n == 0 {
			continue
		}
		out = append(out, s/float64(n)/float64(r.Timesteps))
	}
	return out
}

// Run simulates T timesteps of encoded input for a single image and
// returns the result.
func (n *Network) Run(img *tensor.Tensor, T int, enc Encoder) *RunResult {
	n.Reset()
	var out *tensor.Tensor
	inputSpikes := 0.0
	for t := 0; t < T; t++ {
		spikes := enc.Encode(img)
		inputSpikes += spikes.Sum()
		out = n.Step(spikes)
	}
	res := &RunResult{
		Output:       out,
		Timesteps:    T,
		InputSpikes:  inputSpikes,
		InputNeurons: img.Size(),
	}
	for _, l := range n.Layers {
		s, neurons := l.Spikes()
		res.LayerSpikes = append(res.LayerSpikes, s)
		res.LayerNeurons = append(res.LayerNeurons, neurons)
	}
	return res
}

// Trace records per-timestep spiking activity of a single inference run,
// enabling trace-driven (rather than mean-rate) energy replay and
// instantaneous power profiles.
type Trace struct {
	// LayerNames names the stateful layers, in network order.
	LayerNames []string
	// Neurons is each stateful layer's neuron count.
	Neurons []int
	// Weighted marks stateful layers with crossbar weights (Dense/Conv);
	// pooling IF stages are stateful but weightless.
	Weighted []bool
	// Steps[t][l] is the spike count of stateful layer l at timestep t.
	Steps [][]float64
	// InputSteps[t] is the encoder's spike count at timestep t.
	InputSteps []float64
	// InputNeurons is the input dimensionality.
	InputNeurons int
}

// Timesteps returns the trace length.
func (tr *Trace) Timesteps() int { return len(tr.Steps) }

// Rates returns per-layer per-step firing rates (spikes per neuron).
func (tr *Trace) Rates() [][]float64 {
	out := make([][]float64, len(tr.Steps))
	for t, row := range tr.Steps {
		out[t] = make([]float64, len(row))
		for l, s := range row {
			if tr.Neurons[l] > 0 {
				out[t][l] = s / float64(tr.Neurons[l])
			}
		}
	}
	return out
}

// InputRates returns the encoder's per-step firing rate.
func (tr *Trace) InputRates() []float64 {
	out := make([]float64, len(tr.InputSteps))
	for t, s := range tr.InputSteps {
		out[t] = s / float64(tr.InputNeurons)
	}
	return out
}

// RunTraced is Run with per-timestep spike recording.
func (n *Network) RunTraced(img *tensor.Tensor, T int, enc Encoder) (*RunResult, *Trace) {
	n.Reset()
	tr := &Trace{InputNeurons: img.Size()}
	stateful := make([]Layer, 0, len(n.Layers))
	for _, l := range n.Layers {
		switch l.(type) {
		case *Dense, *Conv, *AvgPoolIF:
			stateful = append(stateful, l)
			tr.LayerNames = append(tr.LayerNames, l.Name())
			_, w1 := isWeighted(l)
			tr.Weighted = append(tr.Weighted, w1)
		}
	}
	tr.Neurons = make([]int, len(stateful))
	prevCounts := make([]float64, len(stateful))

	var out *tensor.Tensor
	inputSpikes := 0.0
	for t := 0; t < T; t++ {
		spikes := enc.Encode(img)
		stepIn := spikes.Sum()
		inputSpikes += stepIn
		tr.InputSteps = append(tr.InputSteps, stepIn)
		out = n.Step(spikes)
		row := make([]float64, len(stateful))
		for i, l := range stateful {
			count, neurons := l.Spikes()
			row[i] = count - prevCounts[i]
			prevCounts[i] = count
			tr.Neurons[i] = neurons
		}
		tr.Steps = append(tr.Steps, row)
	}
	res := &RunResult{
		Output:       out,
		Timesteps:    T,
		InputSpikes:  inputSpikes,
		InputNeurons: img.Size(),
	}
	for _, l := range n.Layers {
		s, neurons := l.Spikes()
		res.LayerSpikes = append(res.LayerSpikes, s)
		res.LayerNeurons = append(res.LayerNeurons, neurons)
	}
	return res, tr
}

// isWeighted reports whether a stateful layer carries crossbar weights.
func isWeighted(l Layer) (Layer, bool) {
	switch l.(type) {
	case *Dense, *Conv:
		return l, true
	}
	return l, false
}

// StatefulRates returns per-neuron firing rates of every IF-bearing layer
// after a Run, in layer order. Used by the Fig. 10 correlation analysis.
func (n *Network) StatefulRates(timesteps int) []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, l := range n.Layers {
		switch v := l.(type) {
		case *Dense:
			out = append(out, v.IF.Rates(timesteps))
		case *Conv:
			out = append(out, v.IF.Rates(timesteps))
		case *AvgPoolIF:
			out = append(out, v.IF.Rates(timesteps))
		}
	}
	return out
}
