package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/models"
	"repro/internal/rng"
	"repro/internal/snn"
	"repro/internal/tensor"
)

// sparsePoint is one row of the activity sweep: the same compiled SNN
// workload driven at one controlled input-activity level, run once
// through Session.RunBatch (the production walk, which skips silent
// stages and windows) and once through Session.RunReference (the dense
// reference walk). The skip counters come from the production runs; the
// reference runs must report zeros — the reference never skips and
// never reads through a packed plane. The dense_/event_ field names
// keep the record's schema.
type sparsePoint struct {
	Activity         float64 `json:"activity"`
	DenseSec         float64 `json:"dense_sec"`
	EventSec         float64 `json:"event_sec"`
	DenseNsPerImg    float64 `json:"dense_ns_per_img"`
	EventNsPerImg    float64 `json:"event_ns_per_img"`
	Speedup          float64 `json:"speedup"`
	BitwiseIdentical bool    `json:"bitwise_identical"`
	SilentStageSkips int64   `json:"silent_stage_skips"`
	SpikesSkipped    int64   `json:"spikes_skipped"`
	PackedWords      int64   `json:"packed_words"`
	RepeatReads      int64   `json:"repeat_reads"`
}

// sparseBench is the BENCH_sparse.json schema.
type sparseBench struct {
	Env       benchEnv      `json:"env"`
	Workload  string        `json:"workload"`
	Images    int           `json:"images"`
	Timesteps int           `json:"timesteps"`
	Points    []sparsePoint `json:"points"`
}

// runSparseBench measures the production walk against the reference
// walk across input-activity levels, verifies bitwise-identical outputs at
// every level, and writes the record to outPath.
//
// Activity is controlled through the input: every pixel of the
// synthetic image carries the target activity as its intensity, and a
// gain-1 Poisson encoder turns that into Bernoulli spike planes whose
// expected density equals the target. At activity 1.0 every pixel fires
// every timestep, so the sweep's dense endpoint also exercises the
// timestep-repeat cache (identical consecutive planes).
func runSparseBench(images, T int, outPath string) error {
	if images < 8 {
		images = 8
	}

	sim := core.New()
	tr, te := dataset.TrainTest(dataset.MNISTLike, 400, images, 77)
	net := models.NewMLP3(1, 16, 10, rng.New(5))
	pipe, err := sim.Build(net, tr, te, core.DefaultPipelineConfig())
	if err != nil {
		return err
	}
	shape, _ := pipe.Test.Sample(0)
	ctx := context.Background()

	// bernoulli installs a per-run Bernoulli encoder: pixel intensity is
	// the per-timestep firing probability, verbatim.
	bernoulli := arch.WithEncoder(func(r *rng.Rand) snn.Encoder {
		return snn.NewPoissonEncoder(1.0, r)
	})

	// Each batch takes single-digit milliseconds, so one pass is noise;
	// reps repeats the timed batch and the record carries the per-image
	// average. The first (untimed) pass also warms the session arena.
	const reps = 8
	run := func(imgs []*tensor.Tensor, ref bool) ([]*arch.RunResult, time.Duration, error) {
		sess, err := pipe.CompileChip(T, 1, bernoulli)
		if err != nil {
			return nil, 0, err
		}
		res, err := runWalk(ctx, sess, imgs, ref)
		if err != nil {
			return nil, 0, err
		}
		start := time.Now()
		for rep := 0; rep < reps; rep++ {
			if _, err := runWalk(ctx, sess, imgs, ref); err != nil {
				return nil, 0, err
			}
		}
		return res, time.Since(start) / reps, err
	}

	rec := sparseBench{
		Env:       captureEnv(),
		Workload:  "mlp3-mnistlike-bernoulli",
		Images:    images,
		Timesteps: T,
	}

	fmt.Printf("production walk vs reference walk: %s, %d images, T=%d\n", rec.Workload, images, T)
	for _, activity := range []float64{0.01, 0.10, 0.50, 1.00} {
		imgs := make([]*tensor.Tensor, images)
		for i := range imgs {
			img := tensor.New(shape.Shape()...)
			d := img.Data()
			for j := range d {
				d[j] = activity
			}
			imgs[i] = img
		}

		denseRes, denseDur, err := run(imgs, true)
		if err != nil {
			return err
		}
		eventRes, eventDur, err := run(imgs, false)
		if err != nil {
			return err
		}

		pt := sparsePoint{
			Activity:         activity,
			DenseSec:         denseDur.Seconds(),
			EventSec:         eventDur.Seconds(),
			DenseNsPerImg:    float64(denseDur.Nanoseconds()) / float64(images),
			EventNsPerImg:    float64(eventDur.Nanoseconds()) / float64(images),
			Speedup:          denseDur.Seconds() / eventDur.Seconds(),
			BitwiseIdentical: true,
		}
		for i := range denseRes {
			if denseRes[i].PackedWords != 0 || denseRes[i].SilentStageSkips != 0 || denseRes[i].RepeatReads != 0 {
				return fmt.Errorf("activity %v: reference walk reported skip counters: %+v", activity, denseRes[i])
			}
			dd, ed := denseRes[i].Output.Data(), eventRes[i].Output.Data()
			for j := range dd {
				//nebula:lint-ignore float-eq bitwise determinism check: any rounding difference is the bug being detected
				if dd[j] != ed[j] {
					pt.BitwiseIdentical = false
				}
			}
			if denseRes[i].Prediction != eventRes[i].Prediction || denseRes[i].Spikes != eventRes[i].Spikes {
				pt.BitwiseIdentical = false
			}
			pt.SilentStageSkips += eventRes[i].SilentStageSkips
			pt.SpikesSkipped += eventRes[i].SpikesSkipped
			pt.PackedWords += eventRes[i].PackedWords
			pt.RepeatReads += eventRes[i].RepeatReads
		}
		rec.Points = append(rec.Points, pt)
		fmt.Printf("  %3.0f%% activity: reference %7.2f ms/img, production %7.2f ms/img, %5.2fx  (stage skips %d, spikes skipped %d, repeats %d, identical %v)\n",
			activity*100, pt.DenseNsPerImg/1e6, pt.EventNsPerImg/1e6, pt.Speedup,
			pt.SilentStageSkips, pt.SpikesSkipped, pt.RepeatReads, pt.BitwiseIdentical)
		if !pt.BitwiseIdentical {
			return fmt.Errorf("activity %v: production outputs diverged from the reference walk", activity)
		}
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

// runWalk runs imgs through sess in order: as one RunBatch on the
// production walk, or one RunReference per image on the reference walk.
// Both reserve the same per-run streams, so their outputs compare bit
// for bit.
func runWalk(ctx context.Context, sess *arch.Session, imgs []*tensor.Tensor, ref bool) ([]*arch.RunResult, error) {
	if !ref {
		return sess.RunBatch(ctx, imgs)
	}
	out := make([]*arch.RunResult, len(imgs))
	for i, img := range imgs {
		res, err := sess.RunReference(ctx, img)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}
