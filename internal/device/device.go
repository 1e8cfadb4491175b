// Package device models the spintronic primitives of the NEBULA
// architecture: the domain-wall magnetic-tunnel-junction (DW-MTJ) synapse
// of Fig. 1 and the spiking / non-spiking DW-MTJ neurons of Fig. 2.
//
// The paper characterizes these devices with micromagnetic (MuMax) and
// NEGF transport simulation calibrated to the measurements of Emori et
// al.; this package substitutes an analytic model that reproduces the
// *transfer behaviour* those simulations feed to the architecture layer:
//
//   - domain-wall displacement proportional to programming current above a
//     depinning threshold (the linear characteristic of Fig. 1(b));
//   - conductance interpolating between the parallel (P) and anti-parallel
//     (AP) MTJ states as the wall moves, with 20 nm pinning resolution
//     giving 16 programmable states along a 320 nm free layer;
//   - integrate-and-fire behaviour for the neuron device: the wall
//     position is the membrane potential, a spike fires when the wall
//     reaches the far edge, and a reverse current resets it;
//   - a saturating-linear transfer for the non-spiking (ANN) neuron.
//
// Energy and voltage scales follow §II-B: ~100 mV programming voltages and
// ~100 fJ write energies, roughly an order of magnitude below PCM/RRAM.
package device

import (
	"math"
)

// Params collects the geometric and dynamic device constants. The zero
// value is not useful; use DefaultParams.
type Params struct {
	// LengthNM is the free-layer length in nanometres (320 nm in the
	// paper's design discussion).
	LengthNM float64
	// PinResolutionNM is the minimum programmable wall displacement
	// (20 nm), so States = LengthNM / PinResolutionNM.
	PinResolutionNM float64
	// DepinningCurrentUA is the critical current (µA) below which the
	// wall does not move.
	DepinningCurrentUA float64
	// MobilityNMPerUAns is the wall velocity per unit overdrive current,
	// in nm per (µA·ns).
	MobilityNMPerUAns float64
	// GParallelUS and GAntiParallelUS are the conductances (µS) of the
	// fully parallel and fully anti-parallel configurations. Their ratio
	// is the ON/OFF ratio discussed in §IV-C (≈7× observed).
	GParallelUS     float64
	GAntiParallelUS float64
	// VReadMV is the read voltage across the MTJ (≈100 mV scale).
	VReadMV float64
	// WriteEnergyFJ is the energy of a full-length programming event
	// (~100 fJ per §II-B2).
	WriteEnergyFJ float64
	// PulseNS is the nominal programming pulse width; the 110 ns NEBULA
	// pipeline stage is set by the neuron switching time.
	PulseNS float64
}

// DefaultParams returns the calibration used throughout the reproduction,
// chosen to match the quantities quoted in §II-B and §V-C.
func DefaultParams() Params {
	return Params{
		LengthNM:           320,
		PinResolutionNM:    20,
		DepinningCurrentUA: 2.0,
		MobilityNMPerUAns:  0.05,
		GParallelUS:        70,
		GAntiParallelUS:    10, // 7× ON/OFF ratio [31]
		VReadMV:            100,
		WriteEnergyFJ:      100,
		PulseNS:            110,
	}
}

// States returns the number of programmable resistance levels.
func (p Params) States() int {
	return int(math.Round(p.LengthNM / p.PinResolutionNM))
}

// WallVelocity returns the domain-wall velocity (nm/ns) for a programming
// current in µA. Below the depinning threshold the wall is pinned. The
// linear velocity/current relation is the calibrated characteristic of
// Fig. 1(b).
func (p Params) WallVelocity(currentUA float64) float64 {
	mag := math.Abs(currentUA)
	if mag <= p.DepinningCurrentUA {
		return 0
	}
	v := p.MobilityNMPerUAns * (mag - p.DepinningCurrentUA)
	if currentUA < 0 {
		return -v
	}
	return v
}

// Synapse is a DW-MTJ synaptic device (Fig. 1(a)): terminals T2–T3 carry
// the programming current through the heavy-metal layer, T1–T3 reads the
// MTJ conductance.
type Synapse struct {
	P Params
	// pos is the domain-wall position in [0, LengthNM].
	pos float64
}

// NewSynapse returns a synapse with the wall at the AP edge (minimum
// conductance).
func NewSynapse(p Params) *Synapse { return &Synapse{P: p} }

// Conductance returns the present T1–T3 conductance in µS: a linear mix of
// the P and AP domain conductances weighted by wall position.
func (s *Synapse) Conductance() float64 {
	frac := s.pos / s.P.LengthNM
	return s.P.GAntiParallelUS + frac*(s.P.GParallelUS-s.P.GAntiParallelUS)
}

// Program drives a current pulse (µA, signed) of the given duration (ns)
// through the heavy metal, moving the wall. It returns the wall
// displacement in nm.
func (s *Synapse) Program(currentUA, durationNS float64) float64 {
	v := s.P.WallVelocity(currentUA)
	before := s.pos
	s.pos += v * durationNS
	if s.pos < 0 {
		s.pos = 0
	}
	if s.pos > s.P.LengthNM {
		s.pos = s.P.LengthNM
	}
	return s.pos - before
}

// SpikingNeuron is the IF neuron device of Fig. 2(a): the wall position is
// the membrane potential; when it reaches the far edge the reference-MTJ
// divider flips the inverter, emitting a spike, and a reverse current
// resets the wall.
type SpikingNeuron struct {
	P Params
	// pos is the wall position (membrane state).
	pos float64
}

// NewSpikingNeuron returns a neuron with the wall at the reset edge.
func NewSpikingNeuron(p Params) *SpikingNeuron { return &SpikingNeuron{P: p} }

// Membrane returns the wall position normalized to [0, 1], i.e. the
// membrane potential as a fraction of threshold.
func (n *SpikingNeuron) Membrane() float64 { return n.pos / n.P.LengthNM }

// Integrate applies the summed source-line current (µA) for duration ns.
// It returns true if the neuron fired during the interval. Negative
// currents (inhibition) move the wall back toward reset.
func (n *SpikingNeuron) Integrate(currentUA, durationNS float64) bool {
	// WallVelocity is fused by hand: the shared |current| magnitude and
	// the skipped zero-velocity add keep this under the inlining budget
	// for the per-column integrate walk, with bitwise-identical results
	// (the sub-depinning case added exactly +0 to a never-negative pos).
	mag := currentUA
	if mag < 0 {
		mag = -mag
	}
	if mag > n.P.DepinningCurrentUA {
		v := n.P.MobilityNMPerUAns * (mag - n.P.DepinningCurrentUA)
		if currentUA < 0 {
			v = -v // inhibition moves the wall back toward reset
		}
		n.pos += v * durationNS
	}
	if n.pos < 0 {
		n.pos = 0
	}
	if n.pos < n.P.LengthNM {
		return false
	}
	// Fire and reset: the output spike triggers the reverse-current
	// reset of §II-B3. Residual overdrive is discarded (hardware
	// reset returns the wall fully to the left edge).
	n.pos = 0
	return true
}

// Reset returns the wall to the reset edge.
func (n *SpikingNeuron) Reset() {
	n.pos = 0
}

// CharacteristicPoint is one sample of the Fig. 1(b) device curve.
type CharacteristicPoint struct {
	CurrentUA      float64
	DisplacementNM float64
	ConductanceUS  float64
}

// Characteristic sweeps programming current and returns displacement and
// conductance per fixed-width pulse, regenerating Fig. 1(b). The sweep
// starts from the AP state at each point.
func Characteristic(p Params, minUA, maxUA float64, points int) []CharacteristicPoint {
	out := make([]CharacteristicPoint, points)
	for i := 0; i < points; i++ {
		cur := minUA + (maxUA-minUA)*float64(i)/float64(points-1)
		s := NewSynapse(p)
		// Start mid-device so negative currents can also displace the wall.
		s.pos = p.LengthNM / 2
		moved := s.Program(cur, p.PulseNS)
		out[i] = CharacteristicPoint{
			CurrentUA:      cur,
			DisplacementNM: moved,
			ConductanceUS:  s.Conductance(),
		}
	}
	return out
}
