package arch

import (
	"fmt"

	"repro/internal/crossbar"
	"repro/internal/device"
	"repro/internal/rng"
	"repro/internal/spikeplane"
	"repro/internal/tensor"
)

// neuralCore is the neural core of one weighted stage: a super-tile
// plus the MTJ neurons of the domain the stage runs in. A spiking core
// drives 1-bit spikes into integrate-and-fire neurons whose domain-wall
// position stores the membrane potential between timesteps (§IV-B4) —
// no SRAM round-trips. A continuous core drives multi-level inputs into
// saturating-ReLU neurons with continuous outputs.
type neuralCore struct {
	ST *SuperTile
	// VTh is a full domain-wall traversal in activation units (1 after
	// weight normalization): the firing threshold of a spiking core and
	// the saturation ceiling of a continuous one, whose outputs are
	// max(0, min(VTh, x)).
	VTh float64
	// kernels is the kernel count; positions the number of
	// time-multiplexed output positions, each owning a replica bank of
	// kernels MTJ neurons in every spiking run's state.
	kernels, positions int
}

// newNeuralCore builds a neural core around a fresh super-tile.
func newNeuralCore(p device.Params, cfg crossbar.Config, vth float64, noise *rng.Rand) *neuralCore {
	return &neuralCore{ST: NewSuperTile(p, cfg, noise), VTh: vth}
}

// Program loads the layer kernels and sizes the MTJ neuron banks: one
// neuron per kernel per time-multiplexed output position. Positions
// model kernel replication — each replica's neuron holds its own
// position's membrane in its domain-wall, so no membrane ever visits
// SRAM (§IV-B4). The neurons themselves live in each run's state.
func (c *neuralCore) Program(w *tensor.Tensor, wmax float64, positions int) error {
	if err := c.configure(w, wmax, positions); err != nil {
		return err
	}
	return c.ST.write(w)
}

// configure is the layout half of Program: switch geometry and the
// position-replica bank size, with no device written — the image
// loader imports the recorded conductance state immediately afterwards.
func (c *neuralCore) configure(km *tensor.Tensor, wmax float64, positions int) error {
	if positions < 1 {
		return fmt.Errorf("arch: positions must be ≥ 1")
	}
	if err := c.ST.configureFor(km, wmax); err != nil {
		return err
	}
	c.kernels, c.positions = km.Dim(1), positions
	return nil
}

// integrateBank drives one replica bank of MTJ neurons with the
// evaluated membrane increments, writes the binary spike vector into
// out (len(sums)) and returns the number of spikes emitted. It maps a
// membrane increment of VTh to a full wall traversal within one 110 ns
// cycle: current = increment/VTh · (current that moves the wall the
// full length in one pulse) + the depinning offset. When pl is non-nil
// the packed plane of out is built during the same walk, so the engine
// skips the O(neurons) re-scan a post-hoc Pack would cost; fires are
// exactly 1.0, so the plane stays binary.
//
//nebula:hotpath
func integrateBank(out []float64, pl *spikeplane.Plane, p device.Params, vth float64, bank []device.SpikingNeuron, sums []float64) int64 {
	if pl != nil {
		pl.Reset(len(out))
	}
	clear(out)
	span := p.LengthNM / (p.MobilityNMPerUAns * p.PulseNS)
	var spikes int64
	for i, inc := range sums {
		if inc == 0 {
			continue
		}
		mag := inc
		if mag < 0 {
			mag = -mag
		}
		cur := mag/vth*span + p.DepinningCurrentUA
		if inc < 0 {
			cur = -cur // inhibition drives the wall back toward reset
		}
		if bank[i].Integrate(cur, p.PulseNS) {
			out[i] = 1
			if pl != nil {
				pl.Set(i)
			}
			spikes++
		}
	}
	return spikes
}

// FitsInCore reports whether a kernel matrix of rf×k maps onto a single
// super-tile.
func FitsInCore(rf, k int) bool {
	_, _, err := tileGeometry(rf, k)
	return err == nil
}
