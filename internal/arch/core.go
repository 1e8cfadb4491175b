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

// neuralCore is the neural core of one weighted stage: its kernel
// matrix on super-tile row blocks plus the neurons of the domain the
// stage runs in. A kernel matrix whose receptive field fits one
// super-tile (Rf ≤ 16M) sits on one block and sums its column currents
// in the analog domain; a wider one is sliced row-wise across several
// blocks, each block's partial sums are digitized (the ADC path of
// §IV-B3) and the routing unit adds them — the dashed pipeline stages
// of Fig. 8.
//
// A spiking one-block core drives 1-bit spikes into integrate-and-fire
// MTJ neurons whose domain-wall position stores the membrane potential
// between timesteps (§IV-B4) — no SRAM round-trips. A spiking
// multi-block core keeps its membranes in RU registers instead: that is
// exactly the cost NEBULA's mapping tries to avoid, and the reason spill
// stages are more expensive in the energy model. A continuous core of
// either shape drives multi-level inputs into saturating-ReLU neurons
// with continuous outputs.
type neuralCore struct {
	// blocks are the row blocks; block b holds kernel rows
	// [rowBounds[b], rowBounds[b+1]).
	blocks    []*SuperTile
	rowBounds []int
	// VTh is a full domain-wall traversal in activation units (1 after
	// weight normalization): the firing threshold of a spiking core and
	// the saturation ceiling of a continuous one, whose outputs are
	// max(0, min(VTh, x)).
	VTh float64
	// kernels is the kernel count; positions the number of
	// time-multiplexed output positions, each owning a replica bank of
	// kernels neurons (or RU registers) in every spiking run's state.
	kernels, positions int
}

// adcBits is the resolution of the converter that digitizes each
// block's partial sums on the spill path. The paper's 4-bit converters,
// with per-layer scaling in the peripheral circuitry, are ROADMAP
// item 8.
const adcBits = 8

// rowBlocks partitions the Rf rows of an Rf×K kernel matrix into
// super-tile row blocks and returns the block bounds. Every block
// carries all ceil(K/M) column sets, so it takes min((ACsPerNC/sets)·M,
// MaxRowsPerNC) rows; the result is one block exactly when the matrix
// fits one super-tile. Kernels beyond one super-tile's columns are
// refused: column spill is not modeled.
func rowBlocks(rf, k int) ([]int, error) {
	if rf < 1 || k < 1 {
		return nil, fmt.Errorf("arch: empty %d×%d kernel matrix", rf, k)
	}
	sets := (k + mapping.M - 1) / mapping.M
	if sets > mapping.ACsPerNC {
		return nil, fmt.Errorf("arch: %d kernels exceed one core's column capacity; column spill is not supported by the chip runner", k)
	}
	blockRows := min((mapping.ACsPerNC/sets)*mapping.M, mapping.MaxRowsPerNC)
	bounds := []int{0}
	for lo := 0; lo < rf; lo += blockRows {
		bounds = append(bounds, min(lo+blockRows, rf))
	}
	return bounds, nil
}

// newNeuralCore lays out the neural core of the Rf×K kernel matrix km
// with positions replica banks: the row partition and each block's
// switch geometry, with no device written. A one-block core hands the
// noise stream to its super-tile; a multi-block core splits one stream
// per block from it.
func newNeuralCore(p device.Params, cfg crossbar.Config, noise *rng.Rand, km *tensor.Tensor, wmax float64, positions int) (*neuralCore, error) {
	bounds, err := rowBlocks(km.Dim(0), km.Dim(1))
	if err != nil {
		return nil, err
	}
	c := &neuralCore{rowBounds: bounds, VTh: 1.0, kernels: km.Dim(1), positions: positions}
	for b := 1; b < len(bounds); b++ {
		blockNoise := noise
		if len(bounds) > 2 && noise != nil {
			blockNoise = noise.Split()
		}
		st := NewSuperTile(p, cfg, blockNoise)
		if err := st.Configure(bounds[b]-bounds[b-1], c.kernels, wmax); err != nil {
			return nil, err
		}
		c.blocks = append(c.blocks, st)
	}
	return c, nil
}

// program writes every block's row slice of km to its arrays, in block
// order.
func (c *neuralCore) program(km *tensor.Tensor) error {
	for b, st := range c.blocks {
		if err := st.write(km, c.rowBounds[b]); err != nil {
			return err
		}
	}
	return nil
}

// spills reports whether the kernel matrix spans several row blocks,
// whose digitized partial sums meet at the routing unit.
func (c *neuralCore) spills() bool { return len(c.blocks) > 1 }

// rows is the kernel matrix's receptive field Rf.
func (c *neuralCore) rows() int { return c.rowBounds[len(c.rowBounds)-1] }

// quantizePartial models the adcBits-bit digitization of one block's
// partial sum: the converter covers ±1 in weight-normalized units with
// 2^adcBits levels.
func quantizePartial(v float64) float64 {
	const step = 2.0 / (1 << adcBits)
	half := 0.5
	if v < 0 {
		half = -0.5
	}
	q := float64(int(v/step+half)) * step
	return max(-1, min(1, q))
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

// fireRegisters is integrateBank for the RU membrane registers of a
// spilled spiking core: each register adds its increment, and a
// register at or above vth fires and resets by subtraction, matching
// the converted network. A register can stay above threshold after a
// fire, so it may fire again on zero input.
//
//nebula:hotpath
func fireRegisters(out []float64, pl *spikeplane.Plane, vth float64, regs, sums []float64) int64 {
	if pl != nil {
		pl.Reset(len(out))
	}
	clear(out)
	var spikes int64
	for i, inc := range sums {
		regs[i] += inc
		if regs[i] >= vth {
			out[i] = 1
			if pl != nil {
				pl.Set(i)
			}
			regs[i] -= vth
			spikes++
		}
	}
	return spikes
}
