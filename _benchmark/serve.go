package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// openResult is one open-loop phase.
type openResult struct {
	// lat is each served request's latency from its scheduled send, and
	// late how far behind schedule the generator sent it (ms).
	lat, late []float64
	// admitted is the input index of each admitted request, in admission
	// order; results holds the first keep of their results.
	admitted []int
	results  []*arch.RunResult
	// attempted counts scheduled requests; failed those rejected at
	// admission or answered with an error.
	attempted, failed int
	// span runs from the first scheduled send to the last answer.
	span time.Duration
}

// schedule draws Poisson arrival offsets at rate (req/s) from seed until
// dur has passed and at least minReqs are due.
func schedule(seed uint64, rate float64, dur time.Duration, minReqs int) []time.Duration {
	r := rng.New(seed)
	var out []time.Duration
	t := 0.0
	for {
		t += -math.Log(1-r.Float64()) / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur && len(out) >= minReqs {
			return out
		}
		out = append(out, at)
	}
}

// openLoop offers the schedule to srv from one goroutine, independent of
// how the server keeps up. Each request is timed from when it was due,
// so a stall charges every request it delays.
func openLoop(ctx context.Context, srv *serve.Server, inputs []*tensor.Tensor, due []time.Duration, keep int, hp *heapLive, tr *tracer) (openResult, error) {
	res := openResult{attempted: len(due)}
	lat := make([]float64, len(due))
	errs := make([]error, len(due))
	kept := make([]*arch.RunResult, len(due))
	var wg sync.WaitGroup
	start := time.Now()
	for i, at := range due {
		if wait := at - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		res.late = append(res.late, ms(time.Since(start)-at))
		req := int64(len(res.admitted) + 1)
		t0 := time.Now()
		p, err := srv.Submit(ctx, inputs[i%len(inputs)])
		sid := tr.record("serve.Submit", 0, req, t0, time.Now())
		if err != nil {
			if !errors.Is(err, serve.ErrQueueFull) {
				wg.Wait()
				return res, fmt.Errorf("submit %d: %w", i, err)
			}
			errs[i] = err
			continue
		}
		res.admitted = append(res.admitted, i%len(inputs))
		keepIt := len(res.admitted) <= keep
		wg.Add(1)
		go func(i int, p *serve.Pending) {
			defer wg.Done()
			t1 := time.Now()
			r, err := p.Wait()
			end := time.Now()
			tr.record("serve.Wait", sid, req, t1, end)
			lat[i] = ms(end.Sub(start) - due[i])
			errs[i] = err
			if keepIt {
				kept[i] = r
			}
		}(i, p)
		hp.observe()
	}
	wg.Wait()
	res.span = time.Since(start)
	for i := range due {
		if errs[i] != nil {
			res.failed++
			continue
		}
		res.lat = append(res.lat, lat[i])
		if kept[i] != nil {
			res.results = append(res.results, kept[i])
		}
	}
	return res, nil
}

// closedResult is one closed-loop phase.
type closedResult struct {
	completions, failed int
	elapsed             time.Duration
	// windowRates is the completion rate (req/s) of each full window.
	windowRates []float64
	allocs      uint64
}

// closedLoop keeps clients requests outstanding for dur: each client
// sends its next request as soon as the previous one returns.
// Completion rates are taken over 20 windows.
func closedLoop(ctx context.Context, srv *serve.Server, inputs []*tensor.Tensor, clients int, dur time.Duration, hp *heapLive) closedResult {
	window := dur / 20
	var next atomic.Int64
	done := make([][]time.Duration, clients)
	fails := make([]int, clients)
	var wg sync.WaitGroup
	allocs0 := mallocs()
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < dur {
				k := next.Add(1) - 1
				if _, err := srv.Infer(ctx, inputs[int(k)%len(inputs)]); err != nil {
					fails[c]++
					continue
				}
				done[c] = append(done[c], time.Since(start))
				if c == 0 {
					hp.observe()
				}
			}
		}(c)
	}
	wg.Wait()
	out := closedResult{elapsed: time.Since(start), allocs: mallocs() - allocs0}
	counts := make([]int, int(out.elapsed/window))
	for c := range done {
		out.completions += len(done[c])
		out.failed += fails[c]
		for _, t := range done[c] {
			if w := int(t / window); w < len(counts) {
				counts[w]++
			}
		}
	}
	for _, n := range counts {
		out.windowRates = append(out.windowRates, float64(n)/window.Seconds())
	}
	return out
}

// The nebula-serve defaults: coalescing watermark, coalesce delay and
// admission queue depth.
const (
	serveBatch = 8
	serveDelay = 2 * time.Millisecond
	serveQueue = 64
)

// newServer starts a server with the nebula-serve defaults over pool.
func newServer(pool *fleet.Pool, rec *obs.ServeRecorder) (*serve.Server, error) {
	clock := time.Now()
	return serve.New(serve.Config{
		Pool:       pool,
		BatchSize:  serveBatch,
		MaxDelay:   serveDelay,
		QueueDepth: serveQueue,
		Rec:        rec,
		Now:        func() int64 { return int64(time.Since(clock)) },
	})
}

// checkServed compares served outputs, in admission order, with a
// standalone golden session seeded like the pool running the same
// inputs in the same order. It returns the number of mismatches.
func checkServed(ctx context.Context, golden *arch.Session, inputs []*tensor.Tensor, admitted []int, served []*arch.RunResult) (int, error) {
	bad := 0
	for i, got := range served {
		want, err := golden.Run(ctx, inputs[admitted[i]])
		if err != nil {
			return bad, fmt.Errorf("golden run %d: %w", i, err)
		}
		if !sameBits(got.Output, want.Output) {
			bad++
		}
	}
	return bad, nil
}

// runServeLoop is the serve workload: an open-loop phase at the
// workload's fixed rate, then a closed-loop phase with a fixed number of
// outstanding requests, over one server and pool, then the compile
// pairs. It writes one line per load phase to diag: what was offered,
// served and rejected.
func runServeLoop(ctx context.Context, e *env, dur time.Duration, dir string, corrupt bool, diag io.Writer) (loadStats, error) {
	w, fx := e.fx.w, e.fx
	st := loadStats{eval: newEvalSet()}
	srv, err := newServer(e.pool, nil)
	if err != nil {
		return st, err
	}
	hp := newHeapLive()
	keep := w.nEval
	if w.nCheck > keep {
		keep = w.nCheck
	}
	due := schedule(deriveSeed(fx.runSeed, 3), w.rate, dur/2, keep)
	open, err := openLoop(ctx, srv, fx.inputs, due, keep, hp, nil)
	if err != nil {
		return st, err
	}
	closed := closedLoop(ctx, srv, fx.inputs, w.clients, dur/2, hp)
	if err := srv.Drain(ctx); err != nil {
		return st, fmt.Errorf("drain: %w", err)
	}
	st.attempted = int64(open.attempted + closed.completions + closed.failed)
	st.failed = int64(open.failed + closed.failed)
	fmt.Fprintf(diag, "%s open loop: offered %.0f req/s, served %.0f req/s, %d of %d failed, p50 %.3f ms, p99 %.3f ms, sent late p99 %.3f ms\n",
		w.name, w.rate, float64(len(open.lat))/open.span.Seconds(), open.failed, open.attempted,
		median(open.lat), quantile(open.lat, 0.99), quantile(open.late, 0.99))
	fmt.Fprintf(diag, "%s closed loop: %d outstanding, %.0f req/s, %d of %d failed\n",
		w.name, w.clients, median(closed.windowRates), closed.failed, closed.completions+closed.failed)
	if len(open.results) < keep {
		return st, fmt.Errorf("%s: only %d of the first %d requests served", w.name, len(open.results), keep)
	}
	for i := 0; i < w.nEval; i++ {
		st.eval.add(open.results[i], fx.labels[open.admitted[i]])
	}
	checked := open.results[:w.nCheck]
	if corrupt {
		corruptOutput(checked[0].Output)
	}
	bad, err := checkServed(ctx, e.golden, fx.inputs, open.admitted, checked)
	if err != nil {
		return st, err
	}
	st.mismatched = int64(bad)

	st.p50ms = median(open.lat)
	st.imgPerS = median(closed.windowRates)
	if closed.completions > 0 {
		st.allocsPerImg = float64(closed.allocs) / float64(closed.completions)
	}
	st.heapMB = hp.mb()
	if st.coldMS, st.warmMS, err = measureCompile(ctx, fx, dir, diag); err != nil {
		return st, err
	}
	st.attempted += 2 * compileReps
	return st, nil
}
