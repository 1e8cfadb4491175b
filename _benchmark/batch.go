package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"repro/internal/tensor"
)

// loadStats is what one workload's timed phase measured.
type loadStats struct {
	imgPerS, p50ms       float64
	allocsPerImg, heapMB float64
	coldMS, warmMS       float64
	eval                 *evalSet
	// failed counts operations rejected or answered with an error;
	// mismatched those whose output differs from its reference.
	attempted, failed, mismatched int64
}

// Shares of a batch workload's seconds: the closed RunBatch loop,
// per-image Session.Run, cold/warm compile pairs and the host reference
// kernel.
const (
	batchShare   = 0.55
	runShare     = 0.22
	compileShare = 0.13
	refShare     = 0.1
)

// task is one kind of timed operation of the batch loop.
type task struct {
	share float64
	// atLeast is how many steps it takes even once the seconds are over.
	atLeast int
	n       int
	spent   time.Duration
	step    func(n int) error
}

// interleave steps tasks until dur has passed and each has taken its
// minimum, always stepping the task furthest behind its share. Each
// task's samples then span the whole run, so a slow spell of a shared
// host moves every metric a little instead of one metric wholly.
func interleave(dur time.Duration, tasks ...*task) error {
	start := time.Now()
	for {
		over := time.Since(start) >= dur
		var next *task
		for _, t := range tasks {
			if over && t.n >= t.atLeast {
				continue
			}
			if next == nil || t.spent.Seconds()/t.share < next.spent.Seconds()/next.share {
				next = t
			}
		}
		if next == nil {
			return nil
		}
		t0 := time.Now()
		if err := next.step(next.n); err != nil {
			return err
		}
		next.spent += time.Since(t0)
		next.n++
	}
}

// runBatchLoop is the timed phase of the batch workloads. It interleaves
// four tasks:
//   - the closed loop, one RunBatch after another over the held-out
//     inputs, at least the evaluation prefix: img_per_s is the batch size
//     over the median batch time;
//   - per-image Session.Run over the same inputs on an identically
//     compiled reference session: p50_ms is its median latency, and its
//     first nCheck outputs must equal the batch outputs bit for bit — the
//     batch-shape invariance;
//   - Chip.CompileCached cold/warm pairs: compile_cold_ms and
//     load_warm_ms are their medians;
//   - blocks of the host reference kernel: every timing above is
//     divided by the slowdown of the block timed next after it.
//
// It writes the unscaled quantiles behind each median to diag.
func runBatchLoop(ctx context.Context, e *env, dur time.Duration, dir string, corrupt bool, diag io.Writer) (loadStats, error) {
	w, fx := e.fx.w, e.fx
	st := loadStats{eval: newEvalSet()}
	var batchMS, runMS, coldMS, warmMS []timing
	var checked, refs []*tensor.Tensor
	var allocs uint64
	var warmImgs int
	hp := newHeapLive()
	host := newRefKernel()
	in := make([]*tensor.Tensor, w.batch)
	idx := make([]int, w.batch)
	// One batch more than the evaluation prefix, so that at least one is
	// timed after the warm-up batch.
	evalBatches := (w.nEval + w.batch - 1) / w.batch
	batches := &task{share: batchShare, atLeast: evalBatches + 1, step: func(b int) error {
		for i := range in {
			idx[i] = (b*w.batch + i) % len(fx.inputs)
			in[i] = fx.inputs[idx[i]]
		}
		a0 := mallocs()
		t0 := time.Now()
		res, err := e.sess.RunBatch(ctx, in)
		d := time.Since(t0)
		a1 := mallocs()
		st.attempted += int64(w.batch)
		if err != nil {
			return fmt.Errorf("%s batch %d: %w", w.name, b, err)
		}
		// The first batch warms the session's scratch arena.
		if b > 0 {
			batchMS = append(batchMS, host.stamp(ms(d)))
			allocs += a1 - a0
			warmImgs += w.batch
		}
		for i, r := range res {
			g := b*w.batch + i
			if g < w.nEval {
				st.eval.add(r, fx.labels[idx[i]])
			}
			if g < w.nCheck {
				checked = append(checked, r.Output)
			}
		}
		hp.observe()
		return nil
	}}
	runs := &task{share: runShare, atLeast: w.nCheck, step: func(i int) error {
		t0 := time.Now()
		r, err := e.ref.Run(ctx, fx.inputs[i%len(fx.inputs)])
		runMS = append(runMS, host.stamp(ms(time.Since(t0))))
		st.attempted++
		if err != nil {
			return fmt.Errorf("%s reference run %d: %w", w.name, i, err)
		}
		if i < w.nCheck {
			refs = append(refs, r.Output)
		}
		return nil
	}}
	compiles := &task{share: compileShare, atLeast: 1, step: func(k int) error {
		c, wm, err := compilePair(ctx, fx, dir, k == 0)
		st.attempted += 2
		if err != nil {
			return err
		}
		coldMS, warmMS = append(coldMS, host.stamp(c)), append(warmMS, host.stamp(wm))
		// Collect the pair's sessions now, so that the live heap sampled
		// after the next batch holds only what the closed loop keeps.
		runtime.GC()
		return nil
	}}
	ref := &task{share: refShare, atLeast: 1, step: func(int) error {
		host.sampleBlock()
		return nil
	}}
	if err := interleave(dur, batches, runs, compiles, ref); err != nil {
		return st, err
	}

	if corrupt {
		corruptOutput(checked[0])
	}
	for i, want := range refs {
		if !sameBits(checked[i], want) {
			st.mismatched++
		}
	}
	slow := host.slowdown()
	fmt.Fprintf(diag, "%s: %d batches, %d runs, %d compile pairs, %d reference blocks, host slowdown %.4f; p10/p25/p50/p75 ms: batch %s, run %s, cold %s, warm %s, reference %s\n",
		w.name, batches.n, runs.n, compiles.n, ref.n, slow, spreadOf(raw(batchMS)), spreadOf(raw(runMS)), spreadOf(raw(coldMS)), spreadOf(raw(warmMS)), spreadOf(host.samplesMS))

	st.imgPerS = float64(w.batch) / (median(host.scaled(batchMS)) / 1e3)
	st.p50ms = median(host.scaled(runMS))
	st.coldMS, st.warmMS = median(host.scaled(coldMS)), median(host.scaled(warmMS))
	if warmImgs > 0 {
		st.allocsPerImg = float64(allocs) / float64(warmImgs)
	}
	st.heapMB = hp.mb()
	return st, nil
}

// spreadOf formats the 10th, 25th, 50th and 75th percentiles of xs.
func spreadOf(xs []float64) string {
	return fmt.Sprintf("%.4f/%.4f/%.4f/%.4f", quantile(xs, 0.1), quantile(xs, 0.25), median(xs), quantile(xs, 0.75))
}

// corruptOutput moves one output value by one ulp: the test hook
// proving that a mismatch fails the run.
func corruptOutput(t *tensor.Tensor) {
	d := t.Data()
	d[0] = math.Nextafter(d[0], math.Inf(1))
}
