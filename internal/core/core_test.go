package core

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/hybrid"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/rng"
)

var (
	once sync.Once
	pipe *Pipeline
)

func fixture(t *testing.T) *Pipeline {
	t.Helper()
	once.Do(func() {
		sim := New()
		tr, te := dataset.TrainTest(dataset.MNISTLike, 400, 120, 42)
		net := models.NewMLP3(1, 16, 10, rng.New(3))
		cfg := DefaultPipelineConfig()
		cfg.Train.Epochs = 6
		p, err := sim.Build(net, tr, te, cfg)
		if err != nil {
			panic(err)
		}
		pipe = p
	})
	return pipe
}

func TestPipelineANNAccuracy(t *testing.T) {
	p := fixture(t)
	if acc := p.EvaluateANN(); acc < 0.5 {
		t.Fatalf("quantized ANN accuracy %v", acc)
	}
}

func TestPipelineSNNAccuracy(t *testing.T) {
	p := fixture(t)
	res := p.EvaluateSNN(100, 60)
	if res.Accuracy < 0.45 {
		t.Fatalf("SNN accuracy %v", res.Accuracy)
	}
	if len(res.MeanActivity) == 0 {
		t.Fatal("no activity recorded")
	}
}

func TestPipelineHybrid(t *testing.T) {
	p := fixture(t)
	m, err := hybrid.Split(p.Converted, 1)
	if err != nil {
		t.Fatal(err)
	}
	if acc := m.Evaluate(p.Test, 100, 60, p.Sim.Seed); acc < 0.45 {
		t.Fatalf("hybrid accuracy %v", acc)
	}
	if _, err := hybrid.Split(p.Converted, 99); err == nil {
		t.Fatal("absurd split accepted")
	}
}

func TestPipelineChipRun(t *testing.T) {
	p := fixture(t)
	sess, err := p.CompileChip(60, 1)
	if err != nil {
		t.Fatal(err)
	}
	img, _ := p.Test.Sample(0)
	res, err := sess.Run(context.Background(), img)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 || res.Spikes <= 0 {
		t.Fatalf("no hardware activity: %+v", res)
	}
}

func TestEstimators(t *testing.T) {
	sim := New()
	w := models.FullVGG13(10, 300, 91.6, 90.05)
	ann := sim.EstimateANN(w)
	snn := sim.EstimateSNN(w, w.Timesteps)
	hyb := sim.EstimateHybrid(w, 150, 3)
	if !(ann.EnergyJ < hyb.EnergyJ && hyb.EnergyJ < snn.EnergyJ) {
		t.Fatalf("energy ordering broken: ann %v hyb %v snn %v", ann.EnergyJ, hyb.EnergyJ, snn.EnergyJ)
	}
	if !(snn.AvgPowerW < ann.AvgPowerW) {
		t.Fatalf("power ordering broken: snn %v ann %v", snn.AvgPowerW, ann.AvgPowerW)
	}
}

func TestDescribeMapping(t *testing.T) {
	var b bytes.Buffer
	New().DescribeMapping(models.FullLeNet5(), &b)
	out := b.String()
	if !strings.Contains(out, "lenet5") || !strings.Contains(out, "totals") {
		t.Fatalf("mapping description incomplete:\n%s", out)
	}
}

func TestBuildRejectsBadNetwork(t *testing.T) {
	sim := New()
	tr, te := dataset.TrainTest(dataset.MNISTLike, 50, 20, 1)
	// Network ends in ReLU: conversion must fail cleanly.
	net := models.NewMLP3(1, 16, 10, rng.New(1))
	net.Add(nn.NewReLU("trailing-relu"))
	cfg := DefaultPipelineConfig()
	cfg.Train.Epochs = 1
	if _, err := sim.Build(net, tr, te, cfg); err == nil {
		t.Fatal("expected conversion error")
	}
}
