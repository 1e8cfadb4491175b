// Command nebula-sim maps a full-size paper workload onto the NEBULA chip
// and prints the placement, energy and power reports in all three
// operating modes.
//
// Usage:
//
//	nebula-sim -workload vgg13-cifar10
//	nebula-sim -workload alexnet -timesteps 500 -hybrid 3
//	nebula-sim -metrics -batch 16 -parallel 4      # counter snapshot as Prometheus text
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/arch"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/crossbar"
	"repro/internal/mapping"
	"repro/internal/models"
	"repro/internal/placement"
	"repro/internal/reliability"
)

func workloads() map[string]models.Workload {
	out := map[string]models.Workload{}
	for _, w := range models.PaperWorkloads() {
		out[w.Name] = w
	}
	return out
}

func main() {
	name := flag.String("workload", "vgg13-cifar10", "workload name (see -list)")
	list := flag.Bool("list", false, "list available workloads")
	timesteps := flag.Int("timesteps", 0, "SNN window (0 = the workload's Table I value)")
	hybridK := flag.Int("hybrid", 3, "non-spiking layers in the hybrid report")
	schedule := flag.Bool("schedule", false, "print the compiled per-core configuration")
	traffic := flag.Bool("traffic", false, "simulate routed NoC traffic for one inference")
	meshSize := flag.Int("mesh", 14, "mesh dimension for placement (default 14×14)")
	health := flag.Bool("health", false, "run the chip-scale BIST health scan over the mapped workload")
	faultRate := flag.Float64("faultrate", 0.05, "device fault rate for -health (lines at rate/20)")
	protection := flag.String("protection", "spare", "protection level for -health: none|verify|spare")
	healthSeed := flag.Uint64("health-seed", 2020, "chip seed for -health (totals are deterministic per seed)")
	metrics := flag.Bool("metrics", false, "stream a batch through an observed session and print the counter snapshot as Prometheus text")
	batch := flag.Int("batch", 32, "images per batch for -metrics")
	parallel := flag.Int("parallel", 0, "worker count for -metrics (0 = NumCPU)")
	imageCache := flag.String("image-cache", "", "chip-image cache directory for the -metrics compile: a warm rerun rehydrates the chip from the cached image instead of re-programming (empty = compile fresh)")
	flag.Parse()

	ws := workloads()
	if *list {
		for _, w := range models.PaperWorkloads() {
			fmt.Printf("  %-22s %-10s %2d weighted layers, T=%d\n",
				w.Name, w.Dataset, len(w.WeightedLayers()), w.Timesteps)
		}
		return
	}
	w, ok := ws[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "nebula-sim: unknown workload %q (use -list)\n", *name)
		os.Exit(2)
	}
	T := *timesteps
	if T == 0 {
		T = w.Timesteps
	}

	sim := core.New()

	if *metrics {
		if err := runMetrics(sim, *batch, *timesteps, *parallel, *imageCache); err != nil {
			fmt.Fprintf(os.Stderr, "nebula-sim: metrics: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *health {
		prot, err := reliability.ParseProtection(*protection)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nebula-sim: %v\n", err)
			os.Exit(2)
		}
		rel := reliability.StudyConfig(*faultRate, prot)
		np := mapping.MapWorkload(w)
		fmt.Printf("BIST health scan: %s, device fault rate %.4f, protection %s, seed %d\n",
			w.Name, *faultRate, prot, *healthSeed)
		rpt, err := arch.HealthScan(context.Background(), np, sim.Device, crossbar.Config{}, rel, *healthSeed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nebula-sim: health scan: %v\n", err)
			os.Exit(1)
		}
		rpt.Render(os.Stdout)
		if rpt.Degraded || !rpt.Healthy(rel.Policy.MaxUnmitigatedFrac) {
			fmt.Fprintf(os.Stderr, "nebula-sim: health scan: chip degraded (unmitigated fraction %.4f, policy %.4f)\n",
				rpt.UnmitigatedFrac(), rel.Policy.MaxUnmitigatedFrac)
			os.Exit(1)
		}
		return
	}

	sim.DescribeMapping(w, os.Stdout)

	ann := sim.EstimateANN(w)
	snn := sim.EstimateSNN(w, T)
	hyb := sim.EstimateHybrid(w, T/2, *hybridK)

	fmt.Printf("\nenergy & power (T=%d, hybrid: %d ANN layers @ T=%d)\n", T, *hybridK, T/2)
	fmt.Printf("  mode    energy (µJ)   time (µs)   avg power (mW)   peak power (mW)\n")
	fmt.Printf("  ANN     %10.3f   %9.2f   %13.3f   %14.3f\n",
		ann.EnergyJ*1e6, ann.TimeS*1e6, ann.AvgPowerW*1e3, ann.PeakPowerW*1e3)
	fmt.Printf("  SNN     %10.3f   %9.2f   %13.3f   %14.3f\n",
		snn.EnergyJ*1e6, snn.TimeS*1e6, snn.AvgPowerW*1e3, snn.PeakPowerW*1e3)
	fmt.Printf("  hybrid  %10.3f   %9.2f   %13.3f   %14.3f\n",
		hyb.EnergyJ*1e6, hyb.TimeS*1e6, hyb.AvgPowerW*1e3, hyb.PeakPowerW*1e3)
	fmt.Printf("\nheadline ratios: E_SNN/E_ANN = %.2f   P_ANN/P_SNN = %.2f\n",
		snn.EnergyJ/ann.EnergyJ, ann.AvgPowerW/snn.AvgPowerW)

	if *schedule || *traffic {
		np := mapping.MapWorkload(w)
		a, err := placement.Place(np, *meshSize, *meshSize)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nebula-sim: %v\n", err)
			os.Exit(1)
		}
		if *schedule {
			fmt.Println()
			sched, err := compiler.Compile(a)
			if err != nil {
				fmt.Fprintf(os.Stderr, "nebula-sim: %v\n", err)
				os.Exit(1)
			}
			sched.Render(os.Stdout)
			cost := sched.ProgrammingCost(sim.Device)
			fmt.Printf("  weight loading: %d writes, %.1f nJ, %.2f ms serial\n",
				cost.Writes, cost.EnergyJ*1e9, cost.TimeS*1e3)
		}
		if *traffic {
			fmt.Println()
			annT := a.SimulateTraffic(placement.ANNTraffic())
			fmt.Printf("routed NoC traffic (ANN pass): %d packets, %.2f nJ, makespan %.2f µs, %.2f mean hops (analytic assumption %.2f)\n",
				annT.Stats.Packets, annT.EnergyJ()*1e9, annT.MakespanNS/1e3,
				annT.MeanHopsObserved, float64(*meshSize)*2/3)
		}
	}
}
