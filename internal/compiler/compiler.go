// Package compiler produces the compile-time artifacts §IV-B5 alludes to:
// "All synaptic weights are pre-programmed and control configurations are
// pre-computed and loaded at compile time using state machines."
//
// Given a mapped and placed workload, Compile emits one CoreProgram per
// neural core — the morphable-switch settings, NU hierarchy level, the
// kernel-matrix slice the core holds, its evaluation schedule and its
// weight-programming cost — plus chip-level aggregates: total programming
// energy/time (the one-off deployment cost of the inference-only design)
// and the steady-state pipeline latency of Fig. 8.
package compiler

import (
	"fmt"
	"io"

	"repro/internal/device"
	"repro/internal/mapping"
	"repro/internal/placement"
)

// SwitchConfig is a morphable tile's static configuration for one layer.
type SwitchConfig struct {
	// Stack is the number of vertically ganged atomic crossbars.
	Stack int
	// Sets is the number of independent kernel column groups on the core.
	Sets int
	// Level is the NU hierarchy level thresholding the column currents.
	Level mapping.NULevel
}

// String implements fmt.Stringer.
func (c SwitchConfig) String() string {
	return fmt.Sprintf("stack=%d sets=%d nu=%s", c.Stack, c.Sets, c.Level)
}

// CoreProgram is the configuration state machine of one neural core.
type CoreProgram struct {
	// Layer names the mapped layer.
	Layer string
	// CoreIndex is the core's ordinal within the layer's allocation.
	CoreIndex int
	// Node is the core's mesh coordinate (from the placement).
	Node fmt.Stringer
	// Switches is the static tile configuration.
	Switches SwitchConfig
	// RowLo/RowHi is the slice of kernel rows this core holds
	// (multi-core layers split the receptive field across cores).
	RowLo, RowHi int
	// Kernels is the number of kernel columns the core serves.
	Kernels int
	// Synapses is the number of device pairs the core programs.
	Synapses int64
	// EvalsPerPass is the core's crossbar evaluations per inference pass.
	EvalsPerPass int
	// EmitsPartialSums marks the ADC spill path.
	EmitsPartialSums bool
}

// Schedule is the compiled chip configuration for one workload.
type Schedule struct {
	Workload string
	Programs []CoreProgram
	// PipelineStages is the steady-state depth of the Fig. 8 pipeline
	// over the whole network (3 per in-core layer, plus reduction stages
	// on spill layers).
	PipelineStages int
	// PassLatencyNS is the dataflow latency of one full inference pass.
	PassLatencyNS float64
	// TotalSynapses counts programmed device pairs.
	TotalSynapses int64
}

// Compile lowers a placed workload into per-core programs.
func Compile(a *placement.Assignment) (*Schedule, error) {
	s := &Schedule{Workload: a.Workload.Name}
	for _, la := range a.Layers {
		p := la.Placement
		if p.ACsUsed == 0 {
			continue // pooling rides the NU datapath; no core state
		}
		rf := p.Layer.Rf()
		kernels := p.Layer.Kernels()
		if p.NeedsADC() {
			// Spill layers: one core per (set, spill) pair, each holding
			// a 16M-row slice of one 128-kernel column group.
			rowsPerCore := mapping.MaxRowsPerNC
			idx := 0
			for set := 0; set < p.Sets; set++ {
				colLo := set * mapping.M
				colHi := minInt(colLo+mapping.M, kernels)
				for spill := 0; spill < p.NCSpill; spill++ {
					rowLo := spill * rowsPerCore
					rowHi := minInt(rowLo+rowsPerCore, rf)
					if rowLo >= rf || idx >= len(la.Nodes) {
						break
					}
					stack := (rowHi - rowLo + mapping.M - 1) / mapping.M
					prog := CoreProgram{
						Layer:     p.Layer.Name,
						CoreIndex: idx,
						Node:      la.Nodes[idx],
						Switches: SwitchConfig{
							Stack: stack,
							Sets:  1,
							Level: mapping.LevelADC,
						},
						RowLo: rowLo, RowHi: rowHi,
						Kernels:          colHi - colLo,
						Synapses:         int64(rowHi-rowLo) * int64(colHi-colLo),
						EvalsPerPass:     p.Evaluations,
						EmitsPartialSums: true,
					}
					s.Programs = append(s.Programs, prog)
					s.TotalSynapses += prog.Synapses
					idx++
				}
			}
		} else {
			// In-core layers: the full receptive field fits every core;
			// column sets are distributed round-robin across the
			// allocation, so one core may serve several sets.
			cores := len(la.Nodes)
			setsPerCore := (p.Sets + cores - 1) / cores
			setIdx := 0
			for idx := 0; idx < cores; idx++ {
				nSets := minInt(setsPerCore, p.Sets-setIdx)
				if nSets <= 0 {
					break
				}
				colLo := setIdx * mapping.M
				colHi := minInt(colLo+nSets*mapping.M, kernels)
				prog := CoreProgram{
					Layer:     p.Layer.Name,
					CoreIndex: idx,
					Node:      la.Nodes[idx],
					Switches: SwitchConfig{
						Stack: p.StackHeight,
						Sets:  nSets,
						Level: levelForStack(p.StackHeight, p),
					},
					RowLo: 0, RowHi: rf,
					Kernels:          colHi - colLo,
					Synapses:         int64(rf) * int64(colHi-colLo),
					EvalsPerPass:     p.Evaluations,
					EmitsPartialSums: false,
				}
				s.Programs = append(s.Programs, prog)
				s.TotalSynapses += prog.Synapses
				setIdx += nSets
			}
		}
		s.PipelineStages += 3
		if p.NeedsADC() {
			s.PipelineStages += 2 + log2Ceil(p.NCSpill)
		}
		s.PassLatencyNS += p.LatencyNS()
	}
	return s, nil
}

// levelForStack returns the per-core NU level: a spilled core thresholds
// nothing locally (its sums leave through the ADC), otherwise the level
// follows its local stack height.
func levelForStack(stack int, p mapping.Placement) mapping.NULevel {
	if p.NeedsADC() {
		return mapping.LevelADC
	}
	switch {
	case stack <= 1:
		return mapping.LevelH0
	case stack <= mapping.ACsPerTile:
		return mapping.LevelH1
	default:
		return mapping.LevelH2
	}
}

// ProgrammingCost is the one-off weight-loading cost of deployment.
type ProgrammingCost struct {
	// EnergyJ is the total synapse programming energy.
	EnergyJ float64
	// TimeS is the serial programming time at one device per write port
	// per core (pessimistic: one write driver per core).
	TimeS float64
	// Writes counts device programming events (two devices per synapse
	// pair, one of which moves on average).
	Writes int64
}

// ProgrammingCost estimates the deployment cost from the device model: an
// average write moves the wall half its length.
func (s *Schedule) ProgrammingCost(p device.Params) ProgrammingCost {
	writes := s.TotalSynapses // one device of each differential pair moves
	perWriteJ := p.WriteEnergyFJ * 1e-15 * 0.5
	perWriteS := p.PulseNS * 1e-9
	cores := len(s.Programs)
	if cores == 0 {
		cores = 1
	}
	return ProgrammingCost{
		EnergyJ: float64(writes) * perWriteJ,
		TimeS:   float64(writes) / float64(cores) * perWriteS,
		Writes:  writes,
	}
}

// Render writes a human-readable listing of the compiled schedule.
func (s *Schedule) Render(w io.Writer) {
	fmt.Fprintf(w, "compiled schedule for %s: %d core programs, %d pipeline stages, pass latency %.1f µs\n",
		s.Workload, len(s.Programs), s.PipelineStages, s.PassLatencyNS/1e3)
	cur := ""
	for _, p := range s.Programs {
		if p.Layer != cur {
			cur = p.Layer
			fmt.Fprintf(w, "  %s\n", cur)
		}
		spill := ""
		if p.EmitsPartialSums {
			spill = " → ADC/RU"
		}
		fmt.Fprintf(w, "    core %2d @%v  rows [%4d,%4d)  %3d kernels  %s  %d evals%s\n",
			p.CoreIndex, p.Node, p.RowLo, p.RowHi, p.Kernels, p.Switches, p.EvalsPerPass, spill)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func log2Ceil(n int) int {
	c := 0
	for v := 1; v < n; v <<= 1 {
		c++
	}
	return c
}
