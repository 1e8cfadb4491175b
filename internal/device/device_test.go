package device

import (
	"math"
	"testing"
)

func TestStates(t *testing.T) {
	p := DefaultParams()
	if p.States() != 16 {
		t.Fatalf("States = %d, want 16 (320nm / 20nm)", p.States())
	}
}

func TestOnOffRatio(t *testing.T) {
	p := DefaultParams()
	ratio := p.GParallelUS / p.GAntiParallelUS
	if math.Abs(ratio-7) > 0.01 {
		t.Fatalf("ON/OFF ratio = %v, want 7 per [31]", ratio)
	}
}

func TestWallVelocityThreshold(t *testing.T) {
	p := DefaultParams()
	if p.WallVelocity(p.DepinningCurrentUA*0.99) != 0 {
		t.Fatal("wall moved below depinning current")
	}
	if p.WallVelocity(p.DepinningCurrentUA+1) <= 0 {
		t.Fatal("wall did not move above threshold")
	}
	if p.WallVelocity(-(p.DepinningCurrentUA + 1)) >= 0 {
		t.Fatal("negative current must move the wall backward")
	}
}

func TestWallVelocityLinear(t *testing.T) {
	// Fig. 1(b): displacement proportional to overdrive current.
	p := DefaultParams()
	v1 := p.WallVelocity(p.DepinningCurrentUA + 2)
	v2 := p.WallVelocity(p.DepinningCurrentUA + 4)
	if math.Abs(v2-2*v1) > 1e-12 {
		t.Fatalf("velocity not linear in overdrive: %v vs %v", v1, v2)
	}
}

func TestSynapseProgramAndClamp(t *testing.T) {
	p := DefaultParams()
	s := NewSynapse(p)
	if s.pos != 0 {
		t.Fatal("initial position must be 0")
	}
	moved := s.Program(10, 1e6) // huge pulse: clamps at device length
	if moved != p.LengthNM || s.pos != p.LengthNM {
		t.Fatalf("clamp failed: moved %v, pos %v", moved, s.pos)
	}
	// Reverse programming back below zero clamps at 0.
	s.Program(-10, 1e6)
	if s.pos != 0 {
		t.Fatalf("reverse clamp failed: pos %v", s.pos)
	}
}

func TestConductanceRange(t *testing.T) {
	p := DefaultParams()
	s := NewSynapse(p)
	if g := s.Conductance(); math.Abs(g-p.GAntiParallelUS) > 1e-12 {
		t.Fatalf("AP conductance %v", g)
	}
	s.Program(10, 1e6)
	if g := s.Conductance(); math.Abs(g-p.GParallelUS) > 1e-12 {
		t.Fatalf("P conductance %v", g)
	}
}

func TestConductanceMonotoneInLevel(t *testing.T) {
	p := DefaultParams()
	s := NewSynapse(p)
	prev := -1.0
	for l := 0; l < p.States(); l++ {
		s.pos = float64(l) * p.PinResolutionNM
		g := s.Conductance()
		if g <= prev {
			t.Fatalf("conductance not strictly increasing at level %d", l)
		}
		prev = g
	}
}

func TestSpikingNeuronFiresAndResets(t *testing.T) {
	p := DefaultParams()
	n := NewSpikingNeuron(p)
	// Current giving v = 0.05*(6-2) = 0.2 nm/ns → needs 1600 ns to traverse
	// 320 nm; with 110 ns steps that's 15 integrate calls.
	fires := 0
	steps := 0
	for i := 0; i < 30; i++ {
		steps++
		if n.Integrate(6, p.PulseNS) {
			fires++
			break
		}
	}
	if fires != 1 {
		t.Fatal("neuron never fired")
	}
	if steps != 15 {
		t.Fatalf("fired after %d steps, want 15", steps)
	}
	if n.Membrane() != 0 {
		t.Fatalf("membrane %v after fire, want 0", n.Membrane())
	}
}

func TestSpikingNeuronSubthresholdPersistence(t *testing.T) {
	// §IV-B4: the domain wall stores the membrane potential between
	// timesteps with no refresh — integrate, pause, integrate.
	p := DefaultParams()
	n := NewSpikingNeuron(p)
	n.Integrate(6, p.PulseNS)
	m1 := n.Membrane()
	if m1 <= 0 {
		t.Fatal("no integration")
	}
	// "Pause": zero current steps must not decay the state (no leak).
	for i := 0; i < 100; i++ {
		n.Integrate(0, p.PulseNS)
	}
	if n.Membrane() != m1 {
		t.Fatalf("membrane leaked: %v → %v", m1, n.Membrane())
	}
}

func TestSpikingNeuronInhibition(t *testing.T) {
	p := DefaultParams()
	n := NewSpikingNeuron(p)
	n.Integrate(10, p.PulseNS)
	m := n.Membrane()
	n.Integrate(-10, p.PulseNS)
	if n.Membrane() >= m {
		t.Fatal("negative current did not lower membrane")
	}
	// Repeated inhibition clamps at 0.
	for i := 0; i < 50; i++ {
		n.Integrate(-10, p.PulseNS)
	}
	if n.Membrane() != 0 {
		t.Fatalf("membrane %v, want clamp at 0", n.Membrane())
	}
}

func TestSpikingNeuronRateLinearity(t *testing.T) {
	// Firing rate should grow with input current — the device-level basis
	// of rate coding.
	p := DefaultParams()
	rate := func(cur float64) float64 {
		n := NewSpikingNeuron(p)
		spikes := 0
		for i := 0; i < 1000; i++ {
			if n.Integrate(cur, p.PulseNS) {
				spikes++
			}
		}
		return float64(spikes)
	}
	lo, hi := rate(4), rate(8)
	if hi <= lo {
		t.Fatalf("rate not increasing: %v vs %v", lo, hi)
	}
}

func TestCharacteristicShape(t *testing.T) {
	p := DefaultParams()
	pts := Characteristic(p, -12, 12, 25)
	if len(pts) != 25 {
		t.Fatalf("points: %d", len(pts))
	}
	// Displacement must be monotone non-decreasing in current and zero in
	// the pinned dead zone.
	for i := 1; i < len(pts); i++ {
		if pts[i].DisplacementNM < pts[i-1].DisplacementNM-1e-9 {
			t.Fatalf("displacement not monotone at %v µA", pts[i].CurrentUA)
		}
	}
	for _, pt := range pts {
		if math.Abs(pt.CurrentUA) <= p.DepinningCurrentUA && pt.DisplacementNM != 0 {
			t.Fatalf("wall moved inside dead zone at %v µA", pt.CurrentUA)
		}
		if pt.ConductanceUS < p.GAntiParallelUS-1e-9 || pt.ConductanceUS > p.GParallelUS+1e-9 {
			t.Fatalf("conductance %v out of device range", pt.ConductanceUS)
		}
	}
	// Ends must show movement in both directions.
	if pts[0].DisplacementNM >= 0 {
		t.Fatal("strong negative current should move wall backward")
	}
	if pts[len(pts)-1].DisplacementNM <= 0 {
		t.Fatal("strong positive current should move wall forward")
	}
}
