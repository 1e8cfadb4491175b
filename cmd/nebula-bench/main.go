// Command nebula-bench regenerates the tables and figures of the NEBULA
// paper's evaluation section and prints them as text.
//
// Usage:
//
//	nebula-bench -exp all            # everything (trains models; minutes)
//	nebula-bench -exp fig13a         # one experiment
//	nebula-bench -exp table1 -samples 40
//	nebula-bench -exp fig12,fig13a -csv out/   # also write CSV data files
//
// Experiments: fig1, fig4, fig9, fig10, fig12, fig13a, fig13b, fig14,
// fig15, fig16, fig17, table1, table2, table3, noise, ablations,
// sensitivity, profile, faults, obs, resilience, serve, all.
//
// The resilience experiment replays a seeded chaos storm (drift bursts,
// stuck-device onset, replica kills, run faults, deadline pressure)
// against a health-aware session pool and against an unpooled session,
// and records availability/accuracy/latency plus the pool lifecycle
// counters (-resout, default BENCH_resilience.json); -res-smoke runs
// the tiny chaos-smoke shape `make chaos-smoke` gates under -race.
//
// The obs experiment streams a batch through observed sessions in every
// mode (-parallel workers each) and records the counter snapshots plus
// their energy attribution (-obsout, default BENCH_obs.json); the
// record carries no timings, so it is bitwise identical at any
// -parallel — the CI determinism gate diffs it across parallelism
// levels.
//
// No experiment here times the session engine: run-path speed is
// measured by the _benchmark module (host-scaled, per workload) and by
// `go test -bench BenchmarkSession .`.
//
// The serve experiment drives the dynamic-batching inference frontend
// (internal/serve): a determinism phase replays one request sequence
// through servers at several batch shapes and demands bitwise identity
// with a standalone golden session, then an open-loop load phase
// records p50/p99 latency vs offered load, throughput at saturation
// and batch-fill histograms (-serveout, default BENCH_serve.json);
// -serve-smoke runs the tiny clock-free shape `make serve-smoke` gates
// under -race.
//
// -cpuprofile / -memprofile write pprof profiles of whatever experiment
// selection ran (see EXPERIMENTS.md for the analysis workflow).
// Analytic experiments (fig1, fig12-17, table3, ablations, sensitivity)
// run in milliseconds; trained-model experiments (fig4, fig9, fig10,
// table1, table2, noise, profile, faults) train the scaled benchmarks
// first.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/figio"
)

// main delegates to run so profile flushing (and every other defer)
// survives the non-zero exit paths.
func main() { os.Exit(run()) }

func run() int {
	exp := flag.String("exp", "all", "experiment to run (see doc comment)")
	samples := flag.Int("samples", 30, "test images per accuracy measurement")
	trials := flag.Int("trials", 3, "Monte-Carlo trials for the noise study")
	csvDir := flag.String("csv", "", "also write per-experiment CSV files into this directory")
	parallel := flag.Int("parallel", 0, "worker count for the obs experiment's sessions (0 = NumCPU)")
	obsOut := flag.String("obsout", "BENCH_obs.json", "output path for the observability counter record")
	resOut := flag.String("resout", "BENCH_resilience.json", "output path for the resilience chaos-study record")
	serveOut := flag.String("serveout", "BENCH_serve.json", "output path for the serving-tier load-study record")
	resSmoke := flag.Bool("res-smoke", false, "run the resilience experiment at chaos-smoke scale")
	serveSmoke := flag.Bool("serve-smoke", false, "run the serve experiment at smoke scale (clock-free determinism phase only)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the selected experiments to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (after a final GC) to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nebula-bench: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "nebula-bench: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			_ = f.Close()
			fmt.Printf("  [wrote %s]\n", *cpuProfile)
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "nebula-bench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the steady-state heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "nebula-bench: %v\n", err)
				return
			}
			fmt.Printf("  [wrote %s]\n", *memProfile)
		}()
	}

	// writeCSV stores an experiment's data file when -csv is set.
	writeCSV := func(name string, emit func(f *os.File) error) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "nebula-bench: %v\n", err)
			os.Exit(1)
		}
		path := filepath.Join(*csvDir, name+".csv")
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nebula-bench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := emit(f); err != nil {
			fmt.Fprintf(os.Stderr, "nebula-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("  [wrote %s]\n", path)
	}

	runners := map[string]func() error{
		"fig1": func() error {
			r := experiments.Fig1DeviceCharacteristic()
			r.Render(os.Stdout)
			writeCSV("fig1", func(f *os.File) error { return figio.Fig1CSV(f, r) })
			return nil
		},
		"fig4": func() error {
			r, err := experiments.Fig4SpikingActivity(*samples)
			if err != nil {
				return err
			}
			r.Render(os.Stdout)
			return nil
		},
		"fig9": func() error {
			experiments.Fig9QuantizationSweep().Render(os.Stdout)
			return nil
		},
		"fig10": func() error {
			r, err := experiments.Fig10Correlation(*samples)
			if err != nil {
				return err
			}
			r.Render(os.Stdout)
			return nil
		},
		"fig12": func() error {
			r := experiments.Fig12ISAACLayerwise()
			r.Render(os.Stdout)
			writeCSV("fig12", func(f *os.File) error { return figio.Fig12CSV(f, r) })
			return nil
		},
		"fig13a": func() error {
			r := experiments.Fig13aISAACAverage()
			r.Render(os.Stdout)
			writeCSV("fig13a", func(f *os.File) error { return figio.Fig13aCSV(f, r) })
			return nil
		},
		"fig13b": func() error {
			r := experiments.Fig13bINXSLayerwise()
			r.Render(os.Stdout)
			writeCSV("fig13b", func(f *os.File) error { return figio.Fig13bCSV(f, r) })
			return nil
		},
		"fig14": func() error {
			r := experiments.Fig14PeakPower()
			r.Render(os.Stdout)
			writeCSV("fig14", func(f *os.File) error { return figio.Fig14CSV(f, r) })
			return nil
		},
		"fig15": func() error {
			experiments.Fig15ComponentBreakdownVGG().Render(os.Stdout)
			return nil
		},
		"fig16": func() error {
			experiments.Fig16ComponentBreakdownAll().Render(os.Stdout)
			return nil
		},
		"fig17": func() error {
			r := experiments.Fig17HybridStudy()
			r.Render(os.Stdout)
			writeCSV("fig17", func(f *os.File) error { return figio.Fig17CSV(f, r) })
			return nil
		},
		"table1": func() error {
			r, err := experiments.TableIConversion(*samples)
			if err != nil {
				return err
			}
			r.Render(os.Stdout)
			writeCSV("table1", func(f *os.File) error { return figio.TableICSV(f, r) })
			return nil
		},
		"table2": func() error {
			r, err := experiments.TableIIHybrid(*samples)
			if err != nil {
				return err
			}
			r.Render(os.Stdout)
			writeCSV("table2", func(f *os.File) error { return figio.TableIICSV(f, r) })
			return nil
		},
		"table3": func() error {
			experiments.TableIIIComponents().Render(os.Stdout)
			return nil
		},
		"noise": func() error {
			r, err := experiments.NoiseResilience(*samples, *trials)
			if err != nil {
				return err
			}
			r.Render(os.Stdout)
			return nil
		},
		"profile": func() error {
			r, err := experiments.PowerProfile(80)
			if err != nil {
				return err
			}
			r.Render(os.Stdout)
			writeCSV("profile", func(f *os.File) error { return figio.ProfileCSV(f, r) })
			return nil
		},
		"faults": func() error {
			r, err := experiments.FaultResilience(context.Background(), *samples/2+1, 60)
			if err != nil {
				return err
			}
			r.Render(os.Stdout)
			writeCSV("faults", func(f *os.File) error { return figio.FaultCSV(f, r) })
			return nil
		},
		"sensitivity": func() error {
			a := experiments.SensitivitySNNvsANN()
			a.Render(os.Stdout)
			writeCSV("sensitivity_snn_vs_ann", func(f *os.File) error { return figio.SensitivityCSV(f, a) })
			b := experiments.SensitivityBaselines()
			b.Render(os.Stdout)
			writeCSV("sensitivity_baselines", func(f *os.File) error { return figio.SensitivityCSV(f, b) })
			return nil
		},
		"obs": func() error {
			return runObsBench(16, 20, *parallel, *obsOut)
		},
		"resilience": func() error {
			return runResilienceBench(*resSmoke, *resOut)
		},
		"serve": func() error {
			return runServeBench(*serveSmoke, *serveOut)
		},
		"ablations": func() error {
			experiments.AblationNUHierarchy().Render(os.Stdout)
			experiments.AblationMorphableTiles().Render(os.Stdout)
			experiments.AblationMembraneStorage().Render(os.Stdout)
			experiments.AblationBitSerialInput().Render(os.Stdout)
			experiments.AblationHybridSplit().Render(os.Stdout)
			experiments.AblationISAACADCScaling().Render(os.Stdout)
			return nil
		},
	}
	order := []string{
		"fig1", "table3", "fig12", "fig13a", "fig13b", "fig14", "fig15",
		"fig16", "fig17", "ablations", "sensitivity", "table1", "table2",
		"fig4", "fig9", "fig10", "noise", "profile", "faults", "obs",
		"resilience", "serve",
	}

	names := strings.Split(*exp, ",")
	if *exp == "all" {
		names = order
	}
	for _, name := range names {
		runner, ok := runners[strings.TrimSpace(name)]
		if !ok {
			fmt.Fprintf(os.Stderr, "nebula-bench: unknown experiment %q\navailable: %s\n",
				name, strings.Join(order, ", "))
			return 2
		}
		start := time.Now()
		if err := runner(); err != nil {
			fmt.Fprintf(os.Stderr, "nebula-bench: %s: %v\n", name, err)
			return 1
		}
		fmt.Printf("  [%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	return 0
}
