package arch

import (
	"fmt"

	"repro/internal/crossbar"
	"repro/internal/device"
	"repro/internal/mapping"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// RUSpillCore executes a weighted stage whose receptive field exceeds one
// super-tile's 16M rows: the kernel matrix is sliced row-wise across
// several cores, each core's column currents are digitized (the ADC path
// of §IV-B3), and the partial sums are reduced and thresholded by digital
// spike logic at a routing unit — the dashed pipeline stages of Fig. 8.
//
// Unlike a spiking neuralCore, membrane potentials here live in RU
// registers rather than neuron devices; that is exactly the cost NEBULA's
// mapping tries to avoid, and the reason spill stages are more expensive
// in the energy model.
type RUSpillCore struct {
	P   device.Params
	Cfg crossbar.Config
	VTh float64

	blocks    []*SuperTile
	rowBounds []int // block b holds rows [rowBounds[b], rowBounds[b+1])
	kernels   int
	// positions is the number of time-multiplexed outputs; each run's
	// state holds kernels RU membrane registers per position.
	positions int
	// ADCBits quantizes each digitized partial sum (0 disables
	// quantization; the paper uses 4-bit converters with per-layer
	// scaling handled by the peripheral circuitry).
	ADCBits int

	noise *rng.Rand
}

// NewRUSpillCore allocates an unprogrammed spill core.
func NewRUSpillCore(p device.Params, cfg crossbar.Config, vth float64, noise *rng.Rand) *RUSpillCore {
	return &RUSpillCore{P: p, Cfg: cfg, VTh: vth, noise: noise}
}

// Program slices the Rf×K kernel matrix across as many super-tiles as the
// receptive field requires and sizes the RU membrane registers for
// `positions` time-multiplexed outputs.
func (c *RUSpillCore) Program(km *tensor.Tensor, wmax float64, positions int) error {
	if err := c.configure(km, wmax, positions); err != nil {
		return err
	}
	for b, st := range c.blocks {
		lo, hi := c.rowBounds[b], c.rowBounds[b+1]
		sub := tensor.New(hi-lo, c.kernels)
		for r := lo; r < hi; r++ {
			for col := 0; col < c.kernels; col++ {
				sub.Set(km.At(r, col), r-lo, col)
			}
		}
		if err := st.write(sub); err != nil {
			return err
		}
	}
	return nil
}

// configure is the layout half of Program: the row partition and each
// block's switch geometry, with no device writes — the image loader
// imports each block's recorded state afterwards.
func (c *RUSpillCore) configure(km *tensor.Tensor, wmax float64, positions int) error {
	if positions < 1 {
		return fmt.Errorf("arch: positions must be ≥ 1")
	}
	rf, k := km.Dim(0), km.Dim(1)
	sets := (k + mapping.M - 1) / mapping.M
	if sets > mapping.ACsPerNC {
		return fmt.Errorf("arch: %d kernels exceed one core's column capacity; column spill is not supported by the chip runner", k)
	}
	// Rows per block: bounded by the super-tile's AC budget given the
	// column sets the block must also carry.
	blockRows := min((mapping.ACsPerNC/sets)*mapping.M, mapping.MaxRowsPerNC)
	c.blocks = nil
	c.rowBounds = []int{0}
	for lo := 0; lo < rf; lo += blockRows {
		hi := min(lo+blockRows, rf)
		st := NewSuperTile(c.P, c.Cfg, c.splitNoise())
		if err := st.Configure(hi-lo, k, wmax); err != nil {
			return err
		}
		c.blocks = append(c.blocks, st)
		c.rowBounds = append(c.rowBounds, hi)
	}
	c.kernels, c.positions = k, positions
	return nil
}

func (c *RUSpillCore) splitNoise() *rng.Rand {
	if c.noise == nil {
		return nil
	}
	return c.noise.Split()
}

// Blocks returns the number of spilled cores.
func (c *RUSpillCore) Blocks() int { return len(c.blocks) }

// quantizePartial models the 4-bit digitization of a partial sum: the
// converter covers ±1 in weight-normalized units with 2^bits levels.
func (c *RUSpillCore) quantizePartial(v float64) float64 {
	if c.ADCBits <= 0 {
		return v
	}
	levels := float64(int(1) << c.ADCBits)
	step := 2.0 / levels
	q := float64(int(v/step+0.5*sign(v))) * step
	if q > 1 {
		q = 1
	}
	if q < -1 {
		q = -1
	}
	return q
}

func sign(v float64) float64 {
	if v < 0 {
		return -1
	}
	return 1
}
