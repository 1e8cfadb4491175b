package arch

import (
	"fmt"

	"repro/internal/crossbar"
	"repro/internal/device"
	"repro/internal/mapping"
	"repro/internal/rng"
	"repro/internal/spikeplane"
	"repro/internal/tensor"
)

// ANNCore is a neural core configured for ANN inference: multi-level
// drivers, saturating-ReLU MTJ neurons, continuous outputs.
type ANNCore struct {
	ST *SuperTile
	// Clip is the neuron saturation ceiling in activation units (the
	// device's finite wall travel); outputs are max(0, min(Clip, x)).
	Clip float64
}

// NewANNCore builds an ANN core around a fresh super-tile.
func NewANNCore(p device.Params, cfg crossbar.Config, clip float64, noise *rng.Rand) *ANNCore {
	return &ANNCore{ST: NewSuperTile(p, cfg, noise), Clip: clip}
}

// Program loads the layer kernels (Rf×K) scaled to wmax.
func (c *ANNCore) Program(w *tensor.Tensor, wmax float64) error {
	return c.ST.Program(w, wmax)
}

// configure is the restore-path half of Program: switch geometry
// without device writes; the image loader imports the recorded state.
func (c *ANNCore) configure(km *tensor.Tensor, wmax float64) error {
	return c.ST.Configure(km.Dim(0), km.Dim(1), wmax)
}

// SNNCore is a neural core configured for spiking inference: 1-bit spike
// drivers and integrate-and-fire MTJ neurons whose domain-wall position
// stores the membrane potential between timesteps (§IV-B4) — no SRAM
// round-trips.
type SNNCore struct {
	ST *SuperTile
	// VTh is the firing threshold in activation units (1 after weight
	// normalization).
	VTh float64
	// kernels is the kernel count; positions the number of
	// time-multiplexed output positions, each owning a replica bank of
	// kernels MTJ neurons in every run's state.
	kernels, positions int
}

// NewSNNCore builds an SNN core around a fresh super-tile.
func NewSNNCore(p device.Params, cfg crossbar.Config, vth float64, noise *rng.Rand) *SNNCore {
	return &SNNCore{ST: NewSuperTile(p, cfg, noise), VTh: vth}
}

// Program loads the layer kernels and sizes the MTJ neuron banks: one
// neuron per kernel per time-multiplexed output position. Positions
// model kernel replication — each replica's neuron holds its own
// position's membrane in its domain-wall, so no membrane ever visits
// SRAM (§IV-B4). The neurons themselves live in each run's state.
func (c *SNNCore) Program(w *tensor.Tensor, wmax float64, positions int) error {
	if positions < 1 {
		return fmt.Errorf("arch: positions must be ≥ 1")
	}
	if err := c.ST.Program(w, wmax); err != nil {
		return err
	}
	c.kernels, c.positions = w.Dim(1), positions
	return nil
}

// configure is the restore-path half of Program: switch geometry and
// the position-replica bank size are laid out exactly as Program
// would, but no device is written — the image loader imports the
// recorded conductance state immediately afterwards.
func (c *SNNCore) configure(km *tensor.Tensor, wmax float64, positions int) error {
	if positions < 1 {
		return fmt.Errorf("arch: positions must be ≥ 1")
	}
	if err := c.ST.Configure(km.Dim(0), km.Dim(1), wmax); err != nil {
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
	stack := (rf + mapping.M - 1) / mapping.M
	sets := (k + mapping.M - 1) / mapping.M
	return rf <= mapping.MaxRowsPerNC && stack*sets <= mapping.ACsPerNC
}
