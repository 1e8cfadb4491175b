// Package core is the public facade of the NEBULA reproduction: a
// Simulator that ties together the full flow of the paper —
//
//	train an ANN → calibrate and quantize (§IV-C) → convert to an SNN
//	(§V-A) → optionally split into a hybrid (§V-B) → map onto the chip
//	(§IV-B) → evaluate accuracy on simulated hardware and estimate
//	energy/power with the Table III component model.
//
// Downstream users construct a Simulator, build a Pipeline for their model
// and dataset, and query accuracy, energy and power in any of the three
// operating modes.
package core

import (
	"context"
	"fmt"
	"io"

	"repro/internal/arch"
	"repro/internal/convert"
	"repro/internal/crossbar"
	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/energy"
	"repro/internal/mapping"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/train"
)

// Simulator bundles the device, circuit and architecture models.
type Simulator struct {
	// Device is the DW-MTJ calibration.
	Device device.Params
	// Crossbar holds the analog non-ideality knobs.
	Crossbar crossbar.Config
	// Energy is the Table III power/energy model.
	Energy *energy.Model
	// Seed drives every stochastic component.
	Seed uint64
}

// New returns a simulator at the paper's operating point.
func New() *Simulator {
	return &Simulator{
		Device: device.DefaultParams(),
		Energy: energy.NewModel(),
		Seed:   1,
	}
}

// PipelineConfig controls Build.
type PipelineConfig struct {
	// Train configures the ANN training run.
	Train train.Config
	// Quant configures weight/activation discretization; zero values
	// select the paper's 4-bit operating point.
	Quant quant.Config
	// Convert configures the ANN→SNN conversion.
	Convert convert.Config
	// SkipQuantization trains and converts at full precision.
	SkipQuantization bool
}

// DefaultPipelineConfig returns the standard flow settings.
func DefaultPipelineConfig() PipelineConfig {
	return PipelineConfig{
		Train:   train.DefaultConfig(),
		Quant:   quant.DefaultConfig(),
		Convert: convert.DefaultConfig(),
	}
}

// Pipeline is a trained, quantized, converted model ready for evaluation
// in any NEBULA mode.
type Pipeline struct {
	Sim       *Simulator
	ANN       *nn.Network
	Ranges    *quant.LayerRanges
	Converted *convert.Converted
	Train     *dataset.Dataset
	Test      *dataset.Dataset
	Cfg       PipelineConfig
}

// Build trains net on the datasets, calibrates and quantizes it, and
// converts it to a spiking network.
func (s *Simulator) Build(net *nn.Network, trainDS, testDS *dataset.Dataset, cfg PipelineConfig) (*Pipeline, error) {
	if cfg.Train.Epochs == 0 {
		cfg.Train = train.DefaultConfig()
	}
	if cfg.Quant.WeightLevels == 0 {
		cfg.Quant = quant.DefaultConfig()
	}
	if cfg.Convert.Percentile == 0 {
		cfg.Convert = convert.DefaultConfig()
	}
	train.Run(net, trainDS, testDS, cfg.Train)
	ranges := quant.Calibrate(net, trainDS, quant.DefaultCalibration())
	if !cfg.SkipQuantization {
		quant.Apply(net, ranges, cfg.Quant)
	}
	conv, err := convert.Convert(net, trainDS, cfg.Convert)
	if err != nil {
		return nil, fmt.Errorf("core: conversion failed: %w", err)
	}
	return &Pipeline{
		Sim: s, ANN: net, Ranges: ranges, Converted: conv,
		Train: trainDS, Test: testDS, Cfg: cfg,
	}, nil
}

// EvaluateANN returns the (quantized) ANN accuracy on the test set.
func (p *Pipeline) EvaluateANN() float64 {
	if p.Cfg.SkipQuantization {
		return train.Evaluate(p.ANN, p.Test, 32)
	}
	return quant.EvaluateQuantized(p.ANN, p.Test, p.Ranges, p.Cfg.Quant, 32)
}

// EvaluateSNN runs the converted SNN for T timesteps over up to maxSamples
// test images.
func (p *Pipeline) EvaluateSNN(T, maxSamples int) convert.EvalResult {
	return p.Converted.Evaluate(p.Test, T, maxSamples, p.Sim.Seed)
}

// NewChip builds a hardware chip simulator with the pipeline's device and
// crossbar settings. Pass a noise source to enable analog non-idealities.
func (s *Simulator) NewChip(noise *rng.Rand) *arch.Chip {
	return arch.NewChip(s.Device, s.Crossbar, noise)
}

// ChipConfig returns the pipeline's compile configuration for SNN-mode
// inference over test-set-shaped images, as a round-trippable
// arch.CompileConfig. This is the supported way to inspect or vary what
// CompileChip compiles — start from it and pass cfg.Options() — instead
// of assembling ad-hoc option lists or poking session internals.
func (p *Pipeline) ChipConfig(T, parallelism int) arch.CompileConfig {
	img, _ := p.Test.Sample(0)
	return arch.CompileConfig{
		Mode:        arch.ModeSNN,
		Timesteps:   T,
		Parallelism: parallelism,
		Seed:        p.Sim.Seed,
		SeedSet:     true,
		InputShape:  append([]int(nil), img.Shape()...),
	}
}

// CompileChip programs the converted network onto a fresh chip once and
// returns a session for SNN-mode inference over test-set-shaped images:
// the program-once / run-many path. Parallelism ≤ 0 uses all cores.
// Extra options (e.g. arch.WithObserver) are appended after the
// pipeline's defaults; pass arch.WithImageCache(dir) to route the
// compile through the content-addressed chip-image cache, where a hit
// rehydrates the session from disk instead of re-programming.
func (p *Pipeline) CompileChip(T, parallelism int, opts ...arch.Option) (*arch.Session, error) {
	return p.Sim.NewChip(nil).Compile(p.Converted,
		append(p.ChipConfig(T, parallelism).Options(), opts...)...)
}

// RunBatchOnChip compiles once and streams n consecutive test images
// (starting at first) through the session engine concurrently. It returns
// the per-image results and labels in input order. Extra options are
// forwarded to CompileChip, so arch.WithImageCache(dir) makes repeated
// batches rehydrate the chip instead of recompiling it.
func (p *Pipeline) RunBatchOnChip(ctx context.Context, first, n, T, parallelism int, opts ...arch.Option) ([]*arch.RunResult, []int, error) {
	sess, err := p.CompileChip(T, parallelism, opts...)
	if err != nil {
		return nil, nil, err
	}
	imgs := make([]*tensor.Tensor, n)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		imgs[i], labels[i] = p.Test.Sample(first + i)
	}
	res, err := sess.RunBatch(ctx, imgs)
	if err != nil {
		return nil, nil, err
	}
	return res, labels, nil
}

// EstimateANN returns the energy/power report of a full-size workload in
// ANN mode.
func (s *Simulator) EstimateANN(w models.Workload) energy.NetworkReport {
	return s.Energy.ANNNetwork(mapping.MapWorkload(w))
}

// EstimateSNN returns the energy/power report of a full-size workload in
// SNN mode over T timesteps with the default activity profile.
func (s *Simulator) EstimateSNN(w models.Workload, T int) energy.NetworkReport {
	np := mapping.MapWorkload(w)
	return s.Energy.SNNNetwork(np, T, energy.DefaultActivity(w, energy.DefaultInputRate))
}

// EstimateHybrid returns the report of a hybrid configuration.
func (s *Simulator) EstimateHybrid(w models.Workload, T, nonSpiking int) energy.NetworkReport {
	np := mapping.MapWorkload(w)
	return s.Energy.HybridNetwork(np, T, nonSpiking, energy.DefaultActivity(w, energy.DefaultInputRate))
}

// DescribeMapping writes the per-layer placement of a workload.
func (s *Simulator) DescribeMapping(w models.Workload, out io.Writer) {
	np := mapping.MapWorkload(w)
	fmt.Fprintf(out, "mapping of %s onto NEBULA (%d weighted layers)\n", w.Name, len(np.Placements))
	fmt.Fprintln(out, "  layer       Rf     kernels  NU   ACs  NCs  util    evals")
	for _, p := range np.Placements {
		fmt.Fprintf(out, "  %-10s %6d  %6d   %-3s %4d %4d  %.4f  %d\n",
			p.Layer.Name, p.Layer.Rf(), p.Layer.Kernels(), p.Level, p.ACsUsed, p.NCsUsed, p.Utilization, p.Evaluations)
	}
	fmt.Fprintf(out, "  totals: %d ACs, %d NCs, mean utilization %.4f\n",
		np.TotalACs(), np.TotalNCs(), np.MeanUtilization())
}
