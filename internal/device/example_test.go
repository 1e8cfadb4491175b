package device_test

import (
	"fmt"

	"repro/internal/device"
)

// Drive a synapse's wall to the P edge with one long pulse and read its
// conductance.
func ExampleSynapse() {
	s := device.NewSynapse(device.DefaultParams())
	moved := s.Program(10, 1e6)
	fmt.Printf("moved %.0f nm, conductance %.0f µS\n", moved, s.Conductance())
	// Output: moved 320 nm, conductance 70 µS
}

// Integrate-and-fire behaviour of the spiking neuron device: constant
// suprathreshold current fires periodically, the wall self-resets.
func ExampleSpikingNeuron() {
	p := device.DefaultParams()
	n := device.NewSpikingNeuron(p)
	fires := 0
	for i := 0; i < 45; i++ {
		if n.Integrate(6, p.PulseNS) {
			fires++
		}
	}
	fmt.Printf("fired %d times in 45 cycles\n", fires)
	// Output: fired 3 times in 45 cycles
}
