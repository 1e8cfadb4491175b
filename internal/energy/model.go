package energy

import (
	"math"

	"repro/internal/mapping"
	"repro/internal/models"
	"repro/internal/noc"
)

// Mode selects the NEBULA operating mode for a set of layers.
type Mode int

// Operating modes.
const (
	ANN Mode = iota
	SNN
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == ANN {
		return "ANN"
	}
	return "SNN"
}

// Model evaluates NEBULA energy and power. The zero value is not useful;
// use NewModel.
type Model struct {
	S Spec
	// Mesh supplies NoC transfer energy.
	Mesh *noc.Mesh
	// SNNStaticFraction is the fraction of SRAM/eDRAM static power that
	// cannot be gated away between spike events in SNN mode. The paper
	// notes SRAM static power dominates the SNN energy breakdown
	// (§VI-C2), so this stays well above zero.
	SNNStaticFraction float64
	// SNNParallelism is the replication speedup the mapper extracts from
	// the large SNN core partition (Table III allocates 14×13 SNN cores
	// vs 14×1 ANN cores): spare cores hold kernel replicas that process
	// output positions in parallel, shortening each algorithmic timestep.
	// Zero selects the iso-latency provisioning policy: replication grows
	// with the integration window (≈T/50, capped by the available core ratio) so
	// that total inference latency stays roughly independent of T.
	SNNParallelism float64
	// PartialSumBits is the bit width of digitized partial sums on the
	// multi-NC spill path.
	PartialSumBits int
	// ActivationBits is the activation precision (4).
	ActivationBits int
	// EDRAMAccessJ and SRAMAccessJ are the event-driven per-spike access
	// energies of the core memories in SNN mode; spikes are single-bit
	// events, so accesses cost per-word energies rather than full-array
	// active power.
	EDRAMAccessJ float64
	SRAMAccessJ  float64
	// AERBits is the address-event packet size for spike traffic on the
	// mesh.
	AERBits int
	// SpikeGating is the residual switching-energy fraction of a binary
	// spike evaluation relative to the sustained multi-level ANN drive:
	// spike drivers swing a single rail for a fraction of the cycle,
	// whereas ANN DACs hold analog levels for the full evaluation.
	SpikeGating float64
	// ADCPathOverhead is the busy-time multiplier of the multi-NC spill
	// path (the dashed digitize/reduce/activate stages of Fig. 8).
	ADCPathOverhead float64
	// ADCConversionJ is the energy of one 4-bit conversion; RUAddJ is the
	// routing-unit partial-sum add.
	ADCConversionJ float64
	RUAddJ         float64
}

// NewModel returns a model with the paper's operating point.
func NewModel() *Model {
	return &Model{
		S:                 TableIII(),
		Mesh:              noc.New(noc.DefaultConfig()),
		SNNStaticFraction: 0.25,
		SNNParallelism:    0, // auto: iso-latency policy
		PartialSumBits:    8,
		ActivationBits:    4,
		EDRAMAccessJ:      1e-12,
		SRAMAccessJ:       0.5e-12,
		AERBits:           8,
		SpikeGating:       0.3,
		ADCPathOverhead:   3.0,
		ADCConversionJ:    0.5e-12,
		RUAddJ:            0.2e-12,
	}
}

// Breakdown is the component-wise energy split of Figs. 15–16, in joules.
type Breakdown struct {
	CrossbarJ float64 // MTJ crossbar arrays
	DriverJ   float64 // DACs (ANN) or spike drivers (SNN)
	NUJ       float64 // neuron units
	ADCJ      float64
	SRAMJ     float64 // input/output buffers
	EDRAMJ    float64
	NoCJ      float64
	AUJ       float64 // accumulator units (hybrid)
}

// Total sums all components.
func (b Breakdown) Total() float64 {
	return b.CrossbarJ + b.DriverJ + b.NUJ + b.ADCJ + b.SRAMJ + b.EDRAMJ + b.NoCJ + b.AUJ
}

// add accumulates another breakdown.
func (b *Breakdown) add(o Breakdown) {
	b.CrossbarJ += o.CrossbarJ
	b.DriverJ += o.DriverJ
	b.NUJ += o.NUJ
	b.ADCJ += o.ADCJ
	b.SRAMJ += o.SRAMJ
	b.EDRAMJ += o.EDRAMJ
	b.NoCJ += o.NoCJ
	b.AUJ += o.AUJ
}

// LayerReport is the per-layer result.
type LayerReport struct {
	Name string
	Mode Mode
	Breakdown
	// TimeS is the wall-clock time the layer's resources are busy.
	TimeS float64
	// PeakPowerW is the maximum instantaneous power draw.
	PeakPowerW float64
	// AvgPowerW is Total()/TimeS.
	AvgPowerW float64
}

// NetworkReport aggregates a full network pass.
type NetworkReport struct {
	Layers []LayerReport
	Breakdown
	TimeS      float64
	EnergyJ    float64
	AvgPowerW  float64
	PeakPowerW float64
}

// aggregate fills the summary fields from Layers.
func (r *NetworkReport) aggregate() {
	r.Breakdown = Breakdown{}
	r.TimeS, r.EnergyJ, r.PeakPowerW = 0, 0, 0
	for _, l := range r.Layers {
		r.add(l.Breakdown)
		r.TimeS += l.TimeS
		r.EnergyJ += l.Total()
		if l.PeakPowerW > r.PeakPowerW {
			r.PeakPowerW = l.PeakPowerW
		}
	}
	if r.TimeS > 0 {
		r.AvgPowerW = r.EnergyJ / r.TimeS
	}
}

// perAC splits a per-super-tile power across its 16 atomic crossbars.
func (m *Model) perAC(superTilePowerW float64) float64 {
	return superTilePowerW / float64(m.S.ACsPerSuperTile)
}

// rowFraction is the fraction of provisioned crossbar rows actually
// carrying inputs for a placement.
func rowFraction(p mapping.Placement) float64 {
	if p.StackHeight == 0 {
		return 0
	}
	return float64(p.Layer.Rf()) / float64(p.StackHeight*mapping.M)
}

// ANNLayer evaluates one layer in ANN mode. Multi-bit inputs drive every
// mapped row each evaluation, so dynamic power is activity-independent.
func (m *Model) ANNLayer(p mapping.Placement) LayerReport {
	if p.ACsUsed == 0 { // pooling: folded into the NU datapath
		return LayerReport{Name: p.Layer.Name, Mode: ANN}
	}
	cycle := m.S.CycleNS * 1e-9
	time := float64(p.Evaluations) * cycle
	if p.NeedsADC() {
		// The multi-NC spill path adds the dashed Fig. 8 stages
		// (digitize, reduce, activate), keeping the NC busy longer.
		time *= m.ADCPathOverhead
	}
	rf := rowFraction(p)
	acs := float64(p.ACsUsed)
	ncs := float64(p.NCsUsed)
	// A layer occupying part of a super-tile shares the core's memories
	// with other layers mapped to the same NC, so buffer and eDRAM power
	// are charged by crossbar share.
	ncShare := acs / float64(m.S.ACsPerSuperTile)
	if ncShare > ncs {
		ncShare = ncs
	}

	var b Breakdown
	b.CrossbarJ = m.perAC(m.S.ANNCrossbarPowerW) * acs * rf * time
	b.DriverJ = m.perAC(m.S.ANNDACPowerW) * acs * rf * time
	b.NUJ = m.S.NUPowerW / float64(m.S.ACsPerSuperTile) * acs * time
	b.SRAMJ = (m.S.ANNIBPowerW + m.S.ANNOBPowerW) * ncShare * time
	b.EDRAMJ = m.S.EDRAMPowerW * ncShare * time

	adcPowerW := 0.0
	if p.NeedsADC() {
		conversions := float64(p.ADCConversionsPerEval) * float64(p.Evaluations)
		b.ADCJ = conversions*m.ADCConversionJ + conversions*m.RUAddJ
		adcPowerW = m.S.ADCPowerW * ncs
		// Partial sums cross the mesh to the reduction RUs.
		bits := float64(p.ADCConversionsPerEval*p.Evaluations) * float64(m.PartialSumBits)
		b.NoCJ += m.Mesh.TransferEnergyPJ(bits) * 1e-12
	}
	// Layer output activations travel to the consumer NC.
	outBits := float64(p.Layer.OutputNeurons()) * float64(m.ActivationBits)
	b.NoCJ += m.Mesh.TransferEnergyPJ(outBits) * 1e-12

	peak := (m.perAC(m.S.ANNCrossbarPowerW)+m.perAC(m.S.ANNDACPowerW))*acs*rf +
		m.S.NUPowerW/float64(m.S.ACsPerSuperTile)*acs +
		(m.S.ANNIBPowerW+m.S.ANNOBPowerW+m.S.EDRAMPowerW)*ncShare + adcPowerW

	if time > 0 {
		peak += (b.ADCJ + b.NoCJ) / time
	}
	rep := LayerReport{Name: p.Layer.Name, Mode: ANN, Breakdown: b, TimeS: time, PeakPowerW: peak}
	if time > 0 {
		rep.AvgPowerW = b.Total() / time
	}
	return rep
}

// policyParallel returns the iso-latency replication factor for a
// deployment whose nominal evidence window is T timesteps.
func (m *Model) policyParallel(nominalT int) float64 {
	parallel := m.SNNParallelism
	if parallel <= 0 {
		parallel = math.Round(float64(nominalT) / 50)
	}
	if parallel < 1 {
		parallel = 1
	}
	if parallel > 10 {
		parallel = 10
	}
	return parallel
}

// SNNLayer evaluates one layer in SNN mode over T timesteps. inRate and
// outRate are the average spikes per neuron per timestep at the layer's
// input and output; event-driven gating scales every dynamic component by
// them, while the ungated fraction of the memory static power accrues for
// the full integration window. Replication is provisioned for a nominal
// window of T (use snnLayer directly to decouple them).
func (m *Model) SNNLayer(p mapping.Placement, T int, inRate, outRate float64) LayerReport {
	return m.snnLayer(p, T, inRate, outRate, m.policyParallel(T))
}

// snnLayer is SNNLayer with an explicit replication factor.
func (m *Model) snnLayer(p mapping.Placement, T int, inRate, outRate float64, parallel float64) LayerReport {
	if p.ACsUsed == 0 {
		return LayerReport{Name: p.Layer.Name, Mode: SNN}
	}
	cycle := m.S.CycleNS * 1e-9
	evalsPerStep := math.Ceil(float64(p.Evaluations) / parallel)
	time := float64(T) * evalsPerStep * cycle
	// Busy time of the (replicated) resources for dynamic energy: the
	// work is conserved across replication.
	workTime := float64(T) * float64(p.Evaluations) * cycle
	if p.NeedsADC() {
		// The spill path's digitize/reduce/activate stages (Fig. 8)
		// stretch the layer's busy time in SNN mode as well.
		time *= m.ADCPathOverhead
		workTime *= m.ADCPathOverhead
	}
	rf := rowFraction(p)
	acs := float64(p.ACsUsed)
	ncs := float64(p.NCsUsed)

	inSpikes := inRate * float64(p.Layer.InputNeurons()) * float64(T)
	outSpikes := outRate * float64(p.Layer.OutputNeurons()) * float64(T)

	var b Breakdown
	gate := inRate * m.SpikeGating
	b.CrossbarJ = m.perAC(m.S.SNNCrossbarPowerW) * acs * rf * gate * workTime
	b.DriverJ = m.perAC(m.S.SNNDriverPowerW) * acs * rf * gate * workTime
	b.NUJ = m.S.NUPowerW / float64(m.S.ACsPerSuperTile) * acs * outRate * m.SpikeGating * workTime
	// Memory: ungated static power for the full window plus event-driven
	// per-spike access energy.
	ncShare := acs / float64(m.S.ACsPerSuperTile)
	if ncShare > ncs {
		ncShare = ncs
	}
	staticP := (m.S.SNNIBPowerW + m.S.SNNOBPowerW) * ncShare
	b.SRAMJ = staticP*m.SNNStaticFraction*time + (inSpikes+outSpikes)*m.SRAMAccessJ
	b.EDRAMJ = m.S.EDRAMPowerW*ncShare*m.SNNStaticFraction*time + (inSpikes+outSpikes)*m.EDRAMAccessJ

	adcPowerW := 0.0
	if p.NeedsADC() {
		// Partial sums are membrane-potential increments: with no input
		// spikes in an NC's rows the increment is zero and the
		// conversion + transfer are skipped, so the spill path is gated
		// by input activity too.
		conversions := float64(p.ADCConversionsPerEval) * float64(p.Evaluations) * float64(T) * inRate
		b.ADCJ = conversions*m.ADCConversionJ + conversions*m.RUAddJ
		adcPowerW = m.S.ADCPowerW * ncs
		bits := conversions * float64(m.PartialSumBits)
		b.NoCJ += m.Mesh.TransferEnergyPJ(bits) * 1e-12
	}
	// Spikes travel the mesh as address events, only when they occur.
	b.NoCJ += m.Mesh.TransferEnergyPJ(outSpikes*float64(m.AERBits)) * 1e-12

	// Peak is reported per replica set: Fig. 14 compares the
	// instantaneous draw of one layer's datapath in each mode.
	peak := (m.perAC(m.S.SNNCrossbarPowerW)+m.perAC(m.S.SNNDriverPowerW))*acs*rf*gate +
		m.S.NUPowerW/float64(m.S.ACsPerSuperTile)*acs*outRate*m.SpikeGating +
		(staticP+m.S.EDRAMPowerW*ncShare)*(m.SNNStaticFraction+inRate*0.5) + adcPowerW

	if time > 0 {
		peak += (b.ADCJ + b.NoCJ) / time
	}
	rep := LayerReport{Name: p.Layer.Name, Mode: SNN, Breakdown: b, TimeS: time, PeakPowerW: peak}
	if time > 0 {
		rep.AvgPowerW = b.Total() / time
	}
	return rep
}

// ANNNetwork evaluates a whole workload in ANN mode.
func (m *Model) ANNNetwork(np mapping.NetworkPlacement) NetworkReport {
	var r NetworkReport
	for _, p := range np.Placements {
		r.Layers = append(r.Layers, m.ANNLayer(p))
	}
	r.aggregate()
	return r
}

// SNNNetwork evaluates a workload in SNN mode. activity[l] is the input
// spike rate of weighted layer l; activity[l+1] (or the floor value for
// the last layer) is its output rate. Use DefaultActivity or a measured
// profile.
func (m *Model) SNNNetwork(np mapping.NetworkPlacement, T int, activity []float64) NetworkReport {
	// Replication is provisioned for the workload's nominal window, so
	// sweeping T models the same hardware integrating for less time.
	parallel := m.policyParallel(nominalWindow(np, T))
	var r NetworkReport
	for i, p := range np.Placements {
		in := rateAt(activity, i)
		out := rateAt(activity, i+1)
		r.Layers = append(r.Layers, m.snnLayer(p, T, in, out, parallel))
	}
	r.aggregate()
	return r
}

// nominalWindow prefers the workload's Table I integration window for
// hardware provisioning, falling back to the requested T.
func nominalWindow(np mapping.NetworkPlacement, T int) int {
	if np.Workload.Timesteps > 0 {
		return np.Workload.Timesteps
	}
	return T
}

// HybridNetwork evaluates a workload with the last nonSpiking weighted
// layers in ANN mode and the rest in SNN mode, including the accumulator
// units that bridge the two domains (Fig. 6(c)). The AU integrates the
// split-boundary spikes for the full window.
func (m *Model) HybridNetwork(np mapping.NetworkPlacement, T int, nonSpiking int, activity []float64) NetworkReport {
	var r NetworkReport
	n := len(np.Placements)
	split := n - nonSpiking
	if split < 0 {
		split = 0
	}
	parallel := m.policyParallel(nominalWindow(np, T))
	for i, p := range np.Placements {
		if i < split {
			r.Layers = append(r.Layers, m.snnLayer(p, T, rateAt(activity, i), rateAt(activity, i+1), parallel))
		} else {
			r.Layers = append(r.Layers, m.ANNLayer(p))
		}
	}
	// AU energy: one accumulation per boundary spike over the window.
	if split > 0 && split < n {
		boundary := np.Placements[split-1].Layer
		neurons := float64(boundary.OutputNeurons())
		auBlocks := math.Ceil(neurons / 1024)
		cycle := m.S.CycleNS * 1e-9
		au := LayerReport{Name: "accumulator", Mode: SNN}
		au.AUJ = m.S.AUPowerW() * auBlocks * float64(T) * cycle * rateAt(activity, split)
		au.TimeS = 0 // overlapped with the spiking front
		au.PeakPowerW = m.S.AUPowerW() * auBlocks
		r.Layers = append(r.Layers, au)
	}
	r.aggregate()
	return r
}

// rateAt reads the activity profile with clamping.
func rateAt(activity []float64, i int) float64 {
	if len(activity) == 0 {
		return 0.1
	}
	if i < 0 {
		i = 0
	}
	if i >= len(activity) {
		i = len(activity) - 1
	}
	return activity[i]
}

// DefaultInputRate is the mean Poisson firing probability of the encoded
// input layer used by the analytic experiments (mean pixel intensity of
// the benchmark images).
const DefaultInputRate = 0.3

// DefaultActivity returns a parametric spike-activity profile for a
// workload: the input layer fires at the mean pixel rate and activity
// decays with depth, the Fig. 4 trend. Entry l is the input rate of
// weighted layer l; the last entry is the output rate of the final layer.
func DefaultActivity(w models.Workload, inputRate float64) []float64 {
	weighted := w.WeightedLayers()
	out := make([]float64, len(weighted)+1)
	rate := inputRate
	for i := range out {
		out[i] = rate
		rate *= 0.75
		if rate < 0.02 {
			rate = 0.02
		}
	}
	return out
}
