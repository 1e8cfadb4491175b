// Command nebula-benchmark is the repository benchmark. One run sets up
// one workload, drives it for a fixed time and prints, as the last line
// of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end figures a user of the
// simulator sees; with -trace 1 they are per-layer figures from spans
// recorded around the calls into each layer, plus the existing obs
// recorders. Every run first prints a determinism stamp: the seed, the
// environment, a digest of the evaluation outputs and the simulated
// counts behind them. Any output that differs from its reference fails
// the run with exit code 1.
//
// Run it through run.sh from the repository root:
//
//	bash _benchmark/run.sh --workload snn-mlp --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options is one invocation.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	// rate overrides a serve workload's open-loop rate (req/s); it is how
	// the fixed rate is re-derived on a new host.
	rate float64
	// diag receives one-line summaries of the timed phases (nil: none).
	diag io.Writer
	// smoke shrinks the workload to test scale; corrupt flips one
	// checked output before the comparison. Both exist for the tests.
	smoke, corrupt bool
}

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 5

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nebula-benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 30, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run with per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for scratch caches and span dumps")
	fs.Float64Var(&o.rate, "rate", 0, "open-loop rate of a serve workload, req/s (0 = the workload's)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	o.diag = stderr
	res, st, err := execute(context.Background(), o)
	if err != nil {
		fmt.Fprintf(stderr, "nebula-benchmark: %v\n", err)
		return 1
	}
	if err := printResult(stdout, st, res); err != nil {
		fmt.Fprintf(stderr, "nebula-benchmark: %v\n", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintf(stderr, "nebula-benchmark: outputs mismatched their reference (%d of %d operations failed)\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// verdict builds the result line's counts. Rejected and errored
// operations count as failed, so failed/attempted is the error rate;
// only an output that differs from its reference makes the run
// incorrect.
func verdict(attempted, failed, mismatched int64, m map[string]metric) result {
	return result{
		Correct:   mismatched == 0,
		Attempted: attempted,
		Failed:    failed + mismatched,
		Metrics:   m,
	}
}

// stamp lets a simulator-only change show that nothing simulated moved:
// for a fixed seed every field but env is identical run to run.
type stamp struct {
	Workload    string   `json:"workload"`
	Seed        uint64   `json:"seed"`
	Evaluated   int      `json:"evaluated"`
	Digest      string   `json:"output_digest"`
	Accuracy    float64  `json:"accuracy"`
	Cycles      int64    `json:"cycles"`
	Spikes      int64    `json:"spikes"`
	MACs        int64    `json:"macs"`
	PackedWords int64    `json:"packed_words"`
	RepeatReads int64    `json:"repeat_reads"`
	Env         envStamp `json:"env"`
}

type envStamp struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func newStamp(w workload, seed uint64, ev *evalSet) stamp {
	return stamp{
		Workload: w.name, Seed: seed, Evaluated: ev.n, Digest: ev.sum(), Accuracy: ev.accuracy(),
		Cycles: ev.cycles, Spikes: ev.spikes, MACs: ev.macs,
		PackedWords: ev.packed, RepeatReads: ev.repeat,
		Env: envStamp{
			GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
	}
}

func printResult(w io.Writer, st stamp, res result) error {
	sb, err := json.Marshal(st)
	if err != nil {
		return err
	}
	rb, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "stamp %s\n%s\n", sb, rb)
	return err
}

// execute sets the workload up setupReps times (once when tracing),
// then measures it.
func execute(ctx context.Context, o options) (result, stamp, error) {
	w, ok := lookup(o.workload)
	if !ok {
		return result{}, stamp{}, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.smoke {
		w = w.smoke()
	}
	if o.rate > 0 && w.serve {
		w.rate = o.rate
	}
	if o.diag == nil {
		o.diag = io.Discard
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return result{}, stamp{}, err
	}
	dir, err := os.MkdirTemp(o.out, "run-")
	if err != nil {
		return result{}, stamp{}, err
	}
	defer os.RemoveAll(dir)
	dur := time.Duration(o.seconds * float64(time.Second))

	if o.trace {
		return traceRun(ctx, w, o, dir, dur)
	}

	var e *env
	var setups []float64
	for i := 0; i < setupReps; i++ {
		e = nil
		runtime.GC()
		t0 := time.Now()
		if e, err = setup(ctx, w, o.seed, dir, nil); err != nil {
			return result{}, stamp{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	fmt.Fprintf(o.diag, "%s set-up: p10/p25/p50/p75 s %s\n", w.name, spreadOf(setups))

	var ls loadStats
	if w.serve {
		ls, err = runServeLoop(ctx, e, dur, dir, o.corrupt, o.diag)
	} else {
		ls, err = runBatchLoop(ctx, e, dur, dir, o.corrupt, o.diag)
	}
	if err != nil {
		return result{}, stamp{}, err
	}
	res := verdict(ls.attempted, ls.failed, ls.mismatched, map[string]metric{
		"setup_s":            {median(setups), "s"},
		"img_per_s":          {ls.imgPerS, "img/s"},
		"p50_ms":             {ls.p50ms, "ms"},
		"allocs_per_img":     {ls.allocsPerImg, "count"},
		"heap_mb":            {ls.heapMB, "MB"},
		"sim_cycles_per_img": {ls.eval.cyclesPerImg(), "cycles"},
		"accuracy":           {ls.eval.accuracy(), "fraction"},
		"compile_cold_ms":    {ls.coldMS, "ms"},
		"load_warm_ms":       {ls.warmMS, "ms"},
	})
	return res, newStamp(w, o.seed, ls.eval), nil
}
