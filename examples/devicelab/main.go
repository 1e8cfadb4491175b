// devicelab: a tour of the spintronic substrate — the DW-MTJ synapse and
// neuron devices of Fig. 1–2, an all-spin crossbar (Fig. 3), and a
// morphable super-tile aggregating a tall kernel in the current domain
// (Fig. 7).
//
//	go run ./examples/devicelab
package main

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/crossbar"
	"repro/internal/device"
	"repro/internal/rng"
	"repro/internal/tensor"
)

func main() {
	p := device.DefaultParams()
	fmt.Printf("DW-MTJ device: %d states, ON/OFF ratio %.1f, %.0f fJ full write\n\n",
		p.States(), p.GParallelUS/p.GAntiParallelUS, p.WriteEnergyFJ)

	// Fig. 1(b): programming-current sweep.
	fmt.Println("device characteristic (displacement per 110ns pulse):")
	for _, pt := range device.Characteristic(p, -10, 10, 11) {
		fmt.Printf("  I=%+6.1f µA  ΔDW=%+7.2f nm  G=%5.1f µS\n",
			pt.CurrentUA, pt.DisplacementNM, pt.ConductanceUS)
	}

	// Fig. 2(a): the spiking neuron integrates and fires.
	fmt.Println("\nspiking neuron driven at constant current:")
	n := device.NewSpikingNeuron(p)
	for i := 1; i <= 20; i++ {
		fired := n.Integrate(6, p.PulseNS)
		if fired {
			fmt.Printf("  fired at cycle %d, wall reset to %.2f\n", i, n.Membrane())
		}
	}

	// Fig. 3: a small crossbar computes an analog dot product.
	r := rng.New(5)
	cb := crossbar.New(4, 3, p, crossbar.Config{}, nil)
	w := tensor.FromSlice([]float64{
		0.5, -0.25, 1.0,
		0.25, 0.75, -0.5,
		-1.0, 0.5, 0.25,
		0.75, -0.75, 0.5,
	}, 4, 3)
	if err := cb.Program(w, 1); err != nil {
		panic(err)
	}
	x := []float64{1, 0.5, 0.25, 0.75}
	got := make([]float64, 3)
	if err := cb.MACReadInto(got, x, nil, nil, nil); err != nil {
		panic(err)
	}
	fmt.Printf("\ncrossbar MAC of %v:\n  analog %v\n", x, got)
	fmt.Printf("  program energy: %.1f fJ over %d synapses\n",
		cb.Stats().ProgramEnergyFJ, 4*3)

	// Fig. 7: a super-tile aggregates a 600-row kernel across 5 stacked
	// crossbars without any ADC.
	st := arch.NewSuperTile(p, crossbar.Config{}, nil)
	tall := tensor.New(600, 64)
	for i := range tall.Data() {
		tall.Data()[i] = (2*r.Float64() - 1)
	}
	if err := st.Program(tall, 1); err != nil {
		panic(err)
	}
	input := make([]float64, 600)
	for i := range input {
		input[i] = r.Float64()
	}
	out := make([]float64, 64)
	if err := st.EvaluateReadInto(out, input, nil, nil, nil, &arch.EvalScratch{}); err != nil {
		panic(err)
	}
	fmt.Printf("\nsuper-tile: Rf=600 kernel at NU level %v, utilization %.3f\n",
		st.NULevel(), st.Utilization())
	fmt.Printf("  first column currents (weight units): %.3f %.3f %.3f ...\n",
		out[0], out[1], out[2])
}
