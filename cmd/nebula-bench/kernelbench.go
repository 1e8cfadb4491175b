package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/crossbar"
	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/models"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// kernelMACPoint is one row of the MACRead microbenchmark sweep: the
// dense reference walk against the frozen kernel at one active-row
// fraction on a full 128×128 array.
type kernelMACPoint struct {
	ActiveFrac    float64 `json:"active_frac"`
	DenseNsPerOp  float64 `json:"dense_ns_per_op"`
	KernelNsPerOp float64 `json:"kernel_ns_per_op"`
	Speedup       float64 `json:"speedup"`
}

// kernelSessionBench is the end-to-end half of the record: the same
// compiled SNN workload run once on the reference walk
// (Session.RunReference) and once on the production walk
// (Session.RunBatch). The dense_/kernel_ field names keep the record's
// schema.
type kernelSessionBench struct {
	Workload         string  `json:"workload"`
	Images           int     `json:"images"`
	Timesteps        int     `json:"timesteps"`
	DenseSec         float64 `json:"dense_sec"`
	KernelSec        float64 `json:"kernel_sec"`
	DenseImgPerSec   float64 `json:"dense_img_per_sec"`
	KernelImgPerSec  float64 `json:"kernel_img_per_sec"`
	Speedup          float64 `json:"speedup"`
	BitwiseIdentical bool    `json:"bitwise_identical"`
}

// kernelBench is the BENCH_kernel.json schema.
type kernelBench struct {
	Env     benchEnv           `json:"env"`
	MACRead []kernelMACPoint   `json:"macread"`
	Session kernelSessionBench `json:"session"`
}

// benchMACRead times one read path over iters evaluations and returns
// nanoseconds per evaluation. Timing with the wall clock is deliberate:
// this is a command, outside the simulator's determinism boundary.
func benchMACRead(cb *crossbar.Crossbar, in []float64, act []int, iters int) (float64, error) {
	dst := make([]float64, cb.Cols)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := cb.MACReadInto(dst, in, act, nil, nil); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters), nil
}

// runKernelBench measures the frozen-kernel read path against the dense
// reference — first the MACRead microbenchmark sweep across activity
// levels, then the trained MLP workload end to end — verifies the two
// engines agree bit for bit, and writes the record to outPath.
func runKernelBench(images, T int, outPath string) error {
	if images < 8 {
		images = 8
	}

	// --- MACRead sweep: 128×128 array, IR drop on, event-driven reads.
	const rows, cols, iters = 128, 128, 4000
	cb := crossbar.New(rows, cols, device.DefaultParams(), crossbar.Config{IRDropAlpha: 0.3}, nil)
	w := tensor.New(rows, cols)
	r := rng.New(7)
	for i := range w.Data() {
		w.Data()[i] = 2*r.Float64() - 1
	}
	if err := cb.Program(w, 1.0); err != nil {
		return err
	}

	var points []kernelMACPoint
	fmt.Printf("MACRead frozen kernel vs dense reference (%d×%d, %d evals/point)\n", rows, cols, iters)
	for _, frac := range []float64{0.10, 0.50, 0.90, 1.00} {
		in := make([]float64, rows)
		var act []int
		for i := range in {
			if r.Float64() < frac {
				in[i] = r.Float64() + 0.1
				act = append(act, i)
			}
		}
		cb.DropKernel()
		denseNs, err := benchMACRead(cb, in, act, iters)
		if err != nil {
			return err
		}
		cb.BakeKernel()
		kernNs, err := benchMACRead(cb, in, act, iters)
		if err != nil {
			return err
		}
		pt := kernelMACPoint{ActiveFrac: frac, DenseNsPerOp: denseNs, KernelNsPerOp: kernNs, Speedup: denseNs / kernNs}
		points = append(points, pt)
		fmt.Printf("  %3.0f%% active: dense %8.0f ns, kernel %8.0f ns, %5.2fx\n",
			frac*100, denseNs, kernNs, pt.Speedup)
	}

	// --- End-to-end: trained MLP SNN workload, reference vs production walk.
	sim := core.New()
	tr, te := dataset.TrainTest(dataset.MNISTLike, 400, images, 77)
	net := models.NewMLP3(1, 16, 10, rng.New(5))
	pipe, err := sim.Build(net, tr, te, core.DefaultPipelineConfig())
	if err != nil {
		return err
	}
	imgs := make([]*tensor.Tensor, images)
	for i := range imgs {
		imgs[i], _ = pipe.Test.Sample(i)
	}
	ctx := context.Background()

	run := func(ref bool) ([]*arch.RunResult, time.Duration, error) {
		sess, err := pipe.CompileChip(T, 1)
		if err != nil {
			return nil, 0, err
		}
		start := time.Now()
		res, err := runWalk(ctx, sess, imgs, ref)
		return res, time.Since(start), err
	}

	denseRes, denseDur, err := run(true)
	if err != nil {
		return err
	}
	kernRes, kernDur, err := run(false)
	if err != nil {
		return err
	}

	identical := true
	for i := range denseRes {
		dd, kd := denseRes[i].Output.Data(), kernRes[i].Output.Data()
		for j := range dd {
			//nebula:lint-ignore float-eq bitwise determinism check: any rounding difference is the bug being detected
			if dd[j] != kd[j] {
				identical = false
			}
		}
	}

	rec := kernelBench{
		Env:     captureEnv(),
		MACRead: points,
		Session: kernelSessionBench{
			Workload:         "mlp3-mnistlike",
			Images:           images,
			Timesteps:        T,
			DenseSec:         denseDur.Seconds(),
			KernelSec:        kernDur.Seconds(),
			DenseImgPerSec:   float64(images) / denseDur.Seconds(),
			KernelImgPerSec:  float64(images) / kernDur.Seconds(),
			Speedup:          denseDur.Seconds() / kernDur.Seconds(),
			BitwiseIdentical: identical,
		},
	}

	fmt.Printf("session production vs reference walk: %s, %d images, T=%d\n", rec.Session.Workload, images, T)
	fmt.Printf("  reference walk:  %8.2f img/s  (%v)\n", rec.Session.DenseImgPerSec, denseDur.Round(time.Millisecond))
	fmt.Printf("  production walk: %8.2f img/s  (%v)\n", rec.Session.KernelImgPerSec, kernDur.Round(time.Millisecond))
	fmt.Printf("  speedup %.2fx, bitwise identical: %v\n", rec.Session.Speedup, identical)
	if !identical {
		return fmt.Errorf("production-walk outputs diverged from the reference walk")
	}

	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rec); err != nil {
		return err
	}
	fmt.Printf("  [wrote %s]\n", outPath)
	return nil
}
