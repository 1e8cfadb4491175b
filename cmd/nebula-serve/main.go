// Command nebula-serve is the NEBULA inference daemon: a dynamic-
// batching HTTP frontend (internal/serve) over a health-aware session
// pool (internal/fleet), with replicas optionally rehydrated from a
// chip-image cache for instant spin-up.
//
// Usage:
//
//	nebula-serve -port 8080 -replicas 3 -batch 8 -batch-delay 2ms
//	nebula-serve -image-cache /var/cache/nebula -port 8080
//
// Endpoints:
//
//	POST /v1/infer         {"input":[...], "shape":[...], "deadline_ms":N}
//	POST /v1/infer/stream  NDJSON requests in, NDJSON results out
//	GET  /healthz          pool occupancy + drain state (200/503)
//	GET  /metrics          Prometheus text: obs + fleet + cache + serve
//
// The daemon serves the repo's small trained MLP3 over the synthetic
// MNIST-like set (trained at startup, seconds) — the serving tier is
// the subject here, the model a stand-in. Requests admitted before a
// SIGTERM/SIGINT are served before the process exits: the server stops
// admitting (503), flushes the coalescing queue, then closes the
// listener.
//
// A replica's maintenance (scrubbing, recompiles after retirement)
// runs on the -maintain ticker; every run request is bounded by
// -deadline unless the request names its own deadline_ms.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/arch"
	"repro/internal/convert"
	"repro/internal/crossbar"
	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/image"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/reliability"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/train"
)

// chipSeed seeds every replica's chip, which is what makes replicas
// interchangeable (and the image cache hit after the first compile).
const chipSeed = 91

func main() { os.Exit(run()) }

func run() int {
	port := flag.Int("port", 8080, "HTTP listen port")
	replicas := flag.Int("replicas", 3, "session pool size")
	batch := flag.Int("batch", 8, "batch-size watermark for coalescing")
	batchDelay := flag.Duration("batch-delay", 2*time.Millisecond, "coalesce deadline: max wait for a non-full batch (0 = greedy dispatch)")
	queue := flag.Int("queue", 64, "admission queue depth; admissions past it get HTTP 429")
	deadline := flag.Duration("deadline", 30*time.Second, "default per-request deadline when the request names none (0 = unbounded)")
	maxDeadline := flag.Duration("max-deadline", 2*time.Minute, "cap on client-requested deadlines (0 = uncapped)")
	timesteps := flag.Int("timesteps", 20, "SNN evidence window per request")
	seed := flag.Uint64("seed", 2020, "pool RNG seed: the determinism anchor for every served result")
	cacheDir := flag.String("image-cache", "", "chip-image cache directory: replicas past the first rehydrate instead of recompiling (empty = compile each)")
	maintain := flag.Duration("maintain", 10*time.Second, "pool maintenance interval (scrubs, recompiles)")
	drainTimeout := flag.Duration("drain-timeout", 60*time.Second, "max wait for queued requests on shutdown")
	flag.Parse()

	if err := serveMain(*port, *replicas, *batch, *batchDelay, *queue, *deadline, *maxDeadline,
		*timesteps, *seed, *cacheDir, *maintain, *drainTimeout); err != nil {
		fmt.Fprintf(os.Stderr, "nebula-serve: %v\n", err)
		return 1
	}
	return 0
}

func serveMain(port, replicas, batch int, batchDelay time.Duration, queue int,
	deadline, maxDeadline time.Duration, timesteps int, seed uint64,
	cacheDir string, maintain, drainTimeout time.Duration) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The model: the repo's small MLP3, trained on the synthetic set at
	// startup. Identical across replicas by construction.
	fmt.Printf("nebula-serve: training model...\n")
	tr, te := dataset.TrainTest(dataset.MNISTLike, 200, 40, 77)
	net := models.NewMLP3(1, 16, 10, rng.New(5))
	tcfg := train.DefaultConfig()
	tcfg.Epochs = 4
	train.Run(net, tr, te, tcfg)
	conv, err := convert.Convert(net, tr, convert.DefaultConfig())
	if err != nil {
		return err
	}

	newChip := func() *arch.Chip {
		chip := arch.NewChip(device.DefaultParams(), crossbar.Config{ReadNoiseSigma: 0.05}, rng.New(chipSeed))
		chip.Rel = &reliability.Config{
			Protection: reliability.ProtectSpareRemap,
			Policy:     reliability.DefaultPolicy(),
		}
		return chip
	}
	opts := []arch.Option{
		arch.WithMode(arch.ModeSNN),
		arch.WithTimesteps(timesteps),
		arch.WithSeed(seed),
	}
	cacheRec := &obs.CacheRecorder{}
	var factory fleet.Factory
	if cacheDir != "" {
		cache, err := image.NewCache(cacheDir)
		if err != nil {
			return err
		}
		cache.SetMetrics(cacheRec)
		factory = fleet.CachedFactory(newChip, conv, cache, opts...)
	} else {
		factory = func(ctx context.Context) (*arch.Session, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return newChip().Compile(conv, opts...)
		}
	}

	fmt.Printf("nebula-serve: compiling %d replicas (image cache: %q)...\n", replicas, cacheDir)
	fleetRec := &obs.FleetRecorder{}
	compileStart := time.Now()
	pool, err := fleet.NewPool(ctx, fleet.Config{
		Replicas: replicas,
		Factory:  factory,
		Seed:     seed,
		Rec:      fleetRec,
	})
	if err != nil {
		return err
	}
	fmt.Printf("nebula-serve: pool ready in %v\n", time.Since(compileStart).Round(time.Millisecond))

	serveRec := obs.NewServeRecorder()
	clockStart := time.Now()
	srv, err := serve.New(serve.Config{
		Pool:       pool,
		BatchSize:  batch,
		MaxDelay:   batchDelay,
		QueueDepth: queue,
		Rec:        serveRec,
		Now:        func() int64 { return int64(time.Since(clockStart)) },
	})
	if err != nil {
		return err
	}

	// Background maintenance: scrubs and recompiles on a fixed tick,
	// stopped with the signal context.
	go func() {
		ticker := time.NewTicker(maintain)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				if err := pool.Maintain(context.Background()); err != nil {
					fmt.Fprintf(os.Stderr, "nebula-serve: maintain: %v\n", err)
				}
			}
		}
	}()

	httpSrv := &http.Server{
		Addr: fmt.Sprintf(":%d", port),
		Handler: srv.Handler(serve.HandlerConfig{
			DefaultDeadline: deadline,
			MaxDeadline:     maxDeadline,
			ObsRec:          nil, // per-request counters live in the pool's sessions
			FleetRec:        fleetRec,
			CacheRec:        cacheRec,
		}),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Printf("nebula-serve: listening on :%d (batch %d, delay %v, queue %d)\n", port, batch, batchDelay, queue)

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop admitting (new requests get 503), serve
	// everything already queued, then close the listener.
	fmt.Printf("nebula-serve: draining (timeout %v)...\n", drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "nebula-serve: drain: %v\n", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "nebula-serve: shutdown: %v\n", err)
	}
	<-errCh // ListenAndServe has returned ErrServerClosed by now
	fmt.Printf("nebula-serve: drained, bye\n")
	return nil
}
