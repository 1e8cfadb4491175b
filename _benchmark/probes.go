package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/arch"
	"repro/internal/convert"
	"repro/internal/crossbar"
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/snn"
	"repro/internal/spikeplane"
	"repro/internal/tensor"
)

// The traced run measures each layer from outside: it times calls into
// the layer's public functions, records them as spans, and reads the
// obs recorders the layers already fill. Each probe gets a share of the
// run's seconds.
const (
	shareRun      = 0.10
	shareOverhead = 0.30
	shareMode     = 0.075 // each of ANN and SNN
	shareEncode   = 0.03
	shareCrossbar = 0.03 // each of packed and noisy
	shareIm2col   = 0.03
	shareFleet    = 0.10
	shareServe    = 0.15
	imageReps     = 5
	// tailChunk is how many open-loop requests each p99 is taken over:
	// enough that ten lie beyond it.
	tailChunk = 1000
	// xbarDim is the crossbar probe's array size.
	xbarDim = 128
)

// probe carries the traced run's shared state.
type probe struct {
	ctx context.Context
	w   workload
	fx  *fixture
	dur time.Duration
	dir string
	tr  *tracer
	m   map[string]metric
	// ops counts operations; failed those rejected or answered with an
	// error, mismatched those whose output differs from its reference.
	ops, failed, mismatched int64
	runs                    []*tensor.Tensor // golden outputs of the request sequence, in order
}

func (p *probe) put(name string, v float64, unit string) { p.m[name] = metric{v, unit} }

func (p *probe) share(f float64) time.Duration { return time.Duration(f * float64(p.dur)) }

// until reports whether a probe loop should take another step: always
// below min steps, then while its share of time lasts.
func until(i, min int, start time.Time, d time.Duration) bool {
	return i < min || time.Since(start) < d
}

// traceRun sets the workload up once, with spans, and runs every probe.
func traceRun(ctx context.Context, w workload, o options, dir string, dur time.Duration) (result, stamp, error) {
	tr := newTracer()
	fx, err := newFixture(w, o.seed, tr)
	if err != nil {
		return result{}, stamp{}, err
	}
	p := &probe{ctx: ctx, w: w, fx: fx, dur: dur, dir: dir, tr: tr, m: map[string]metric{}}
	ev, err := p.runProbe()
	if err != nil {
		return result{}, stamp{}, err
	}
	if o.corrupt {
		// The fleet and serve probes compare against this output.
		corruptOutput(p.runs[0])
	}
	steps := []func() error{
		p.batchProbe, p.modeProbe, p.encodeProbe, p.crossbarProbe,
		p.im2colProbe, p.fleetProbe, p.serveProbe, p.imageProbe,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return result{}, stamp{}, err
		}
	}
	p.put("core.build_ms", median(tr.durations("core.Build")), "ms")
	p.put("arch.compile_ms", median(tr.durations("arch.Compile")), "ms")
	path := filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, o.seed))
	if err := tr.write(path); err != nil {
		return result{}, stamp{}, err
	}
	return verdict(p.ops, p.failed, p.mismatched, p.m), newStamp(w, o.seed, ev), nil
}

// runProbe times Session.Run one image at a time over the request
// sequence on a standalone session seeded like the pool. Its outputs
// are the golden reference of the fleet and serve probes, and its
// first nEval give the determinism stamp.
func (p *probe) runProbe() (*evalSet, error) {
	g, err := p.fx.compile(p.tr)
	if err != nil {
		return nil, err
	}
	ev := newEvalSet()
	start := time.Now()
	for i := 0; i < len(p.fx.inputs) && until(i, p.w.nEval, start, p.share(shareRun)); i++ {
		t0 := time.Now()
		r, err := g.Run(p.ctx, p.fx.inputs[i])
		p.tr.record("arch.Run", 0, int64(i+1), t0, time.Now())
		p.ops++
		if err != nil {
			return nil, fmt.Errorf("run %d: %w", i, err)
		}
		p.runs = append(p.runs, r.Output)
		if i < p.w.nEval {
			ev.add(r, p.fx.labels[i])
		}
	}
	d := p.tr.durations("arch.Run")
	p.put("arch.run_us_per_img", mean(d)*1e3, "us")
	p.put("arch.run_ms_p50", median(d), "ms")
	return ev, nil
}

// batchProbe alternates RunBatch rounds between an untraced session and
// an identical one carrying spans and an obs recorder. Each pair must
// agree bit for bit; the throughput gap is the tracing overhead.
func (p *probe) batchProbe() error {
	plain, err := p.fx.compile(p.tr)
	if err != nil {
		return err
	}
	rec := obs.NewRecorder()
	observed, err := p.fx.compile(p.tr, arch.WithObserver(rec))
	if err != nil {
		return err
	}
	b := p.w.batch
	in := make([]*tensor.Tensor, b)
	var plainMS, tracedMS []float64
	var spikes, macs, skips, imgs int64
	cursor := 0
	start := time.Now()
	for k := 0; until(k, 2, start, p.share(shareOverhead)); k++ {
		for i := range in {
			in[i] = p.fx.inputs[cursor%len(p.fx.inputs)]
			cursor++
		}
		var pr, or []*arch.RunResult
		var perr, oerr error
		// Alternate which session goes first, so drift cancels.
		for turn := 0; turn < 2; turn++ {
			if (turn+k)%2 == 0 {
				t0 := time.Now()
				pr, perr = plain.RunBatch(p.ctx, in)
				plainMS = append(plainMS, ms(time.Since(t0)))
			} else {
				t0 := time.Now()
				or, oerr = observed.RunBatch(p.ctx, in)
				t1 := time.Now()
				p.tr.record("arch.RunBatch", 0, 0, t0, t1)
				tracedMS = append(tracedMS, ms(t1.Sub(t0)))
			}
		}
		p.ops += int64(2 * b)
		if perr != nil || oerr != nil {
			return fmt.Errorf("batch round %d: %v / %v", k, perr, oerr)
		}
		for i := range pr {
			if !sameBits(pr[i].Output, or[i].Output) {
				p.mismatched++
			}
			spikes += or[i].Spikes
			macs += or[i].Crossbar.MACs
			skips += or[i].SilentStageSkips
			imgs++
		}
	}
	p.put("arch.batch_ms_p90", quantile(tracedMS, 0.9), "ms")
	p.put("obs.overhead_pct", (1-median(plainMS)/median(tracedMS))*100, "%")
	p.put("arch.spikes_per_img", float64(spikes)/float64(imgs), "count")
	p.put("arch.macs_per_img", float64(macs)/float64(imgs), "count")
	p.put("arch.silent_stage_skips_per_img", float64(skips)/float64(imgs), "count")

	snap := rec.Snapshot()
	t := snap.Totals
	p.put("spikeplane.packed_words_per_img", float64(t.PackedWords)/float64(snap.Runs), "count")
	p.put("spikeplane.spikes_skipped_per_img", float64(t.SpikesSkipped)/float64(snap.Runs), "count")
	p.put("crossbar.active_rows_per_read", ratio(t.ActiveRowSum, t.MACReads), "count")
	p.put("crossbar.repeat_read_ratio", ratio(t.RepeatReads, t.MACReads), "ratio")
	return nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// modeProbe compiles the workload's model in ANN and in SNN mode and
// times Session.Run one image at a time, with heap allocations per
// image. On hybrid-lenet the two bracket the halves of the hybrid.
func (p *probe) modeProbe() error {
	for _, mode := range []arch.Mode{arch.ModeANN, arch.ModeSNN} {
		s, err := p.fx.compileMode(p.tr, mode)
		if err != nil {
			return err
		}
		name := "arch.Run." + mode.String()
		// One untimed run warms the session's scratch arena.
		if _, err := s.Run(p.ctx, p.fx.inputs[0]); err != nil {
			return err
		}
		a0 := mallocs()
		start := time.Now()
		n := 0
		for ; until(n, 4, start, p.share(shareMode)); n++ {
			t0 := time.Now()
			_, err := s.Run(p.ctx, p.fx.inputs[n%len(p.fx.inputs)])
			p.tr.record(name, 0, 0, t0, time.Now())
			if err != nil {
				return fmt.Errorf("%s run: %w", mode, err)
			}
		}
		allocs := float64(mallocs()-a0) / float64(n)
		p.ops += int64(n + 1)
		key := "arch.snn"
		if mode == arch.ModeANN {
			key = "arch.ann"
		}
		p.put(key+"_us_per_img", median(p.tr.durations(name))*1e3, "us")
		p.put(key+"_allocs_per_img", allocs, "count")
	}
	return nil
}

// encodeProbe times PoissonEncoder.EncodeIntoPlane over the workload's
// images, one timestep per call.
func (p *probe) encodeProbe() error {
	enc := snn.NewPoissonEncoder(p.fx.conv.Cfg.Gain, rng.New(deriveSeed(p.fx.runSeed, 4)))
	dst := tensor.New(p.fx.inputs[0].Shape()...)
	var pl spikeplane.Plane
	steps := 0
	start := time.Now()
	for i := 0; until(i, 1, start, p.share(shareEncode)); i++ {
		img := p.fx.inputs[i%len(p.fx.inputs)]
		for t := 0; t < p.w.timesteps; t++ {
			enc.EncodeIntoPlane(dst, &pl, img)
		}
		steps += p.w.timesteps
	}
	p.tr.record("snn.EncodeIntoPlane", 0, 0, start, time.Now())
	p.put("snn.encode_ns_per_step", float64(time.Since(start).Nanoseconds())/float64(steps), "ns")
	return nil
}

// firstKernel returns the first weighted layer's kernel matrix, fan-in
// by fan-out, as the chip programs it.
func firstKernel(c *convert.Converted) (*tensor.Tensor, error) {
	for _, l := range c.SNN.Layers {
		switch v := l.(type) {
		case *snn.Conv:
			outC := v.W.Dim(0)
			return v.W.Reshape(outC, v.W.Size()/outC).Transpose(), nil
		case *snn.Dense:
			return v.W.Transpose(), nil
		}
	}
	return nil, fmt.Errorf("model has no weighted layer")
}

// drive is one crossbar input: dense values and their packed mask.
type drive struct {
	in   []float64
	mask []uint64
}

// crossbarProbe programs a 128×128 crossbar with the first weight layer
// (tiled when smaller) and reads it with the workload's own encoded
// spike planes: MACReadPacked on a noiseless array, MACReadInto with a
// read-noise stream on a noisy one.
func (p *probe) crossbarProbe() error {
	km, err := firstKernel(p.fx.conv)
	if err != nil {
		return err
	}
	rf, outC := km.Dim(0), km.Dim(1)
	npix := p.fx.inputs[0].Size()
	off := (npix - xbarDim) / 2
	if off < 0 {
		return fmt.Errorf("input of %d pixels is smaller than the %d-row probe", npix, xbarDim)
	}
	wt := tensor.New(xbarDim, xbarDim)
	for r := 0; r < xbarDim; r++ {
		for c := 0; c < xbarDim; c++ {
			wt.Set(km.At((r+off)%rf, c%outC), r, c)
		}
	}
	newXbar := func(sigma float64) (*crossbar.Crossbar, error) {
		x := crossbar.New(xbarDim, xbarDim, device.DefaultParams(), crossbar.Config{ReadNoiseSigma: sigma}, nil)
		if err := x.Program(wt, km.AbsMax()); err != nil {
			return nil, err
		}
		x.BakeKernel()
		return x, nil
	}
	packed, err := newXbar(0)
	if err != nil {
		return err
	}
	noisy, err := newXbar(0.05)
	if err != nil {
		return err
	}

	enc := snn.NewPoissonEncoder(p.fx.conv.Cfg.Gain, rng.New(deriveSeed(p.fx.runSeed, 5)))
	dst := tensor.New(p.fx.inputs[0].Shape()...)
	var pl spikeplane.Plane
	var drives []drive
	for i := 0; i < 8 && i < len(p.fx.inputs); i++ {
		for t := 0; t < p.w.timesteps; t++ {
			enc.EncodeIntoPlane(dst, &pl, p.fx.inputs[i])
			drives = append(drives, drive{
				in:   append([]float64(nil), dst.Data()[off:off+xbarDim]...),
				mask: append([]uint64(nil), spikeplane.Window(pl.WordSlice(), off, off+xbarDim, nil)...),
			})
		}
	}
	out := make([]float64, xbarDim)
	var stats crossbar.Stats
	read := func(name string, fn func(d drive) error) (float64, error) {
		n := 0
		start := time.Now()
		for ; until(n, len(drives), start, p.share(shareCrossbar)); n++ {
			if err := fn(drives[n%len(drives)]); err != nil {
				return 0, err
			}
		}
		p.tr.record(name, 0, 0, start, time.Now())
		p.ops += int64(n)
		return float64(time.Since(start).Nanoseconds()) / float64(n), nil
	}
	ns, err := read("crossbar.MACReadPacked", func(d drive) error {
		return packed.MACReadPacked(out, d.in, d.mask, nil, &stats)
	})
	if err != nil {
		return err
	}
	p.put("crossbar.read_packed_ns", ns, "ns")
	noise := rng.New(deriveSeed(p.fx.runSeed, 6))
	ns, err = read("crossbar.MACReadInto", func(d drive) error {
		return noisy.MACReadInto(out, d.in, nil, noise, &stats)
	})
	if err != nil {
		return err
	}
	p.put("crossbar.read_noisy_ns", ns, "ns")
	return nil
}

// im2colProbe times tensor.Im2ColInto at the geometry of LeNet's first
// conv layer (5×5, stride 1, pad 2) over the workload's images.
func (p *probe) im2colProbe() error {
	const k, stride, pad = 5, 1, 2
	img := p.fx.inputs[0]
	c, h, w := img.Dim(0), img.Dim(1), img.Dim(2)
	out := tensor.New(c*k*k, tensor.ConvOutSize(h, k, stride, pad)*tensor.ConvOutSize(w, k, stride, pad))
	n := 0
	start := time.Now()
	for ; until(n, 1, start, p.share(shareIm2col)); n++ {
		tensor.Im2ColInto(out, p.fx.inputs[n%len(p.fx.inputs)], k, k, stride, pad)
	}
	p.tr.record("tensor.Im2ColInto", 0, 0, start, time.Now())
	p.put("tensor.im2col_ns", float64(time.Since(start).Nanoseconds())/float64(n), "ns")
	return nil
}

// fleetProbe times fleet.Pool.Run over the request sequence, one request
// at a time, against the golden outputs of runProbe.
func (p *probe) fleetProbe() error {
	rec := &obs.FleetRecorder{}
	pool, err := p.fx.newPool(p.ctx, p.dir, rec, p.tr)
	if err != nil {
		return err
	}
	start := time.Now()
	for i := 0; i < len(p.runs) && until(i, 8, start, p.share(shareFleet)); i++ {
		t0 := time.Now()
		r, err := pool.Run(p.ctx, p.fx.inputs[i])
		p.tr.record("fleet.Run", 0, int64(i+1), t0, time.Now())
		p.ops++
		if err != nil {
			p.failed++
			continue
		}
		if !sameBits(r.Output, p.runs[i]) {
			p.mismatched++
		}
	}
	d := p.tr.durations("fleet.Run")
	p.put("fleet.run_ms_p50", median(d), "ms")
	p.put("fleet.run_ms_p99", quantile(d, 0.99), "ms")
	st := rec.Stats()
	p.put("fleet.retries", float64(st.Retries), "count")
	p.put("fleet.failovers", float64(st.Failovers), "count")
	return nil
}

// serveProbe drives serve.Server open loop over a fresh pool: at the
// workload's rate for serve-mlp, else at half the rate the run probe
// says the replicas can sustain. Served outputs, in admission order,
// must match the golden sequence up to the first rejection.
func (p *probe) serveProbe() error {
	pool, err := p.fx.newPool(p.ctx, p.dir, nil, p.tr)
	if err != nil {
		return err
	}
	rec := obs.NewServeRecorder()
	srv, err := newServer(pool, rec)
	if err != nil {
		return err
	}
	rate := p.w.rate
	if rate == 0 {
		rate = 0.5 * float64(runtime.NumCPU()) / (p.m["arch.run_ms_p50"].Value / 1e3)
	}
	due := schedule(deriveSeed(p.fx.runSeed, 3), rate, p.share(shareServe), 8)
	open, err := openLoop(p.ctx, srv, p.fx.inputs, due, len(p.runs), newHeapLive(), p.tr)
	if err != nil {
		return err
	}
	if err := srv.Drain(p.ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	p.ops += int64(open.attempted)
	p.failed += int64(open.failed)
	// The k-th admitted request holds the pool's k-th reservation, as the
	// golden sequence's k-th run does; once a rejection shifts the inputs
	// the two no longer line up.
	for i, r := range open.results {
		if open.admitted[i] != i {
			break
		}
		if !sameBits(r.Output, p.runs[i]) {
			p.mismatched++
		}
	}
	st := rec.Stats()
	p.put("serve.admit_us_p99", quantile(p.tr.durations("serve.Submit"), 0.99)*1e3, "us")
	p.put("serve.queue_wait_ms_p50", st.CoalesceNS.Quantile(0.5)/1e6, "ms")
	p.put("serve.queue_wait_ms_p99", st.CoalesceNS.Quantile(0.99)/1e6, "ms")
	p.put("serve.batch_fill_mean", st.BatchFill.Mean(), "count")
	p.put("loadgen.late_ms_p99", quantile(open.late, 0.99), "ms")
	p.put("loadgen.p99_ms", chunkedQuantile(open.lat, tailChunk, 0.99), "ms")
	return nil
}

// imageProbe times Session.SaveImage and arch.LoadSession on in-memory
// bytes.
func (p *probe) imageProbe() error {
	s, err := p.fx.compile(p.tr)
	if err != nil {
		return err
	}
	var size int
	for rep := 0; rep < imageReps; rep++ {
		var buf bytes.Buffer
		t0 := time.Now()
		if err := s.SaveImage(&buf); err != nil {
			return fmt.Errorf("save image: %w", err)
		}
		t1 := time.Now()
		p.tr.record("arch.SaveImage", 0, 0, t0, t1)
		size = buf.Len()
		if _, err := arch.LoadSession(bytes.NewReader(buf.Bytes())); err != nil {
			return fmt.Errorf("load image: %w", err)
		}
		p.tr.record("arch.LoadSession", 0, 0, t1, time.Now())
		p.ops += 2
	}
	p.put("image.save_ms", median(p.tr.durations("arch.SaveImage")), "ms")
	p.put("image.load_ms", median(p.tr.durations("arch.LoadSession")), "ms")
	p.put("image.bytes", float64(size), "bytes")
	return nil
}
