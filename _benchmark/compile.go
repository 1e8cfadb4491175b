package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/image"
	"repro/internal/obs"
)

// compileReps is how many cold/warm pairs a serve run times after its
// load phases: each takes milliseconds, and the median of many is what
// stays put from run to run on a noisy host. The batch workloads time
// their pairs interleaved with the closed loop instead.
const compileReps = 121

// measureCompile times compileReps cold/warm pairs, each followed by a
// block of host reference samples, and returns their medians, each pair
// scaled by the slowdown of the block after it. It writes the unscaled
// quantiles to diag.
func measureCompile(ctx context.Context, fx *fixture, dir string, diag io.Writer) (coldMS, warmMS float64, err error) {
	var cold, warm []timing
	host := newRefKernel()
	for rep := 0; rep < compileReps; rep++ {
		c, w, err := compilePair(ctx, fx, dir, rep == 0)
		if err != nil {
			return 0, 0, err
		}
		cold, warm = append(cold, host.stamp(c)), append(warm, host.stamp(w))
		host.sampleBlock()
	}
	fmt.Fprintf(diag, "%s: %d compile pairs, host slowdown %.4f; p10/p25/p50/p75 ms: cold %s, warm %s, reference %s\n",
		fx.w.name, compileReps, host.slowdown(), spreadOf(raw(cold)), spreadOf(raw(warm)), spreadOf(host.samplesMS))
	return median(host.scaled(cold)), median(host.scaled(warm)), nil
}

// compilePair times one Chip.CompileCached miss on a fresh cache and the
// hit that follows it. The warm compile must be a genuine cache hit; with
// check it must also compute the cold session's output bit for bit.
func compilePair(ctx context.Context, fx *fixture, dir string, check bool) (coldMS, warmMS float64, err error) {
	cdir, err := os.MkdirTemp(dir, "compile-cache-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(cdir)
	rec := &obs.CacheRecorder{}
	cache, err := image.NewCache(cdir)
	if err != nil {
		return 0, 0, err
	}
	cache.SetMetrics(rec)
	opts := fx.options(fx.w.mode)

	// Start each pair without GC debt from earlier work.
	runtime.GC()
	t0 := time.Now()
	cs, err := fx.newChip().CompileCached(fx.conv, cache, opts...)
	if err != nil {
		return 0, 0, fmt.Errorf("cold compile: %w", err)
	}
	coldMS = ms(time.Since(t0))

	// Nor does the hit pay for the miss's garbage.
	runtime.GC()
	t0 = time.Now()
	ws, err := fx.newChip().CompileCached(fx.conv, cache, opts...)
	if err != nil {
		return 0, 0, fmt.Errorf("warm load: %w", err)
	}
	warmMS = ms(time.Since(t0))

	if st := rec.Stats(); st.Hits != 1 || st.Misses != 1 {
		return 0, 0, fmt.Errorf("compile cache saw %d hits and %d misses, want 1 and 1", st.Hits, st.Misses)
	}
	if check {
		a, err := cs.Run(ctx, fx.inputs[0])
		if err != nil {
			return 0, 0, err
		}
		b, err := ws.Run(ctx, fx.inputs[0])
		if err != nil {
			return 0, 0, err
		}
		if !sameBits(a.Output, b.Output) {
			return 0, 0, fmt.Errorf("warm-loaded session diverged from the cold compile")
		}
	}
	return coldMS, warmMS, nil
}
