package repro

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation section, plus the ablation studies called out in
// DESIGN.md. Each benchmark regenerates its experiment and reports the
// experiment's headline number as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation. Analytic experiments run in
// milliseconds; trained-model experiments (Table I/II, Figs. 4/9/10 and
// the noise study) train the scaled benchmarks inside the first iteration.

import (
	"context"
	"io"
	"runtime"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/convert"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/models"
	"repro/internal/reliability"
	"repro/internal/rng"
	"repro/internal/snn"
	"repro/internal/tensor"
)

// discard renders a result to devnull so rendering code is exercised too.
func discard(r interface{ Render(io.Writer) }) { r.Render(io.Discard) }

func BenchmarkFig1_DeviceCharacteristic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig1DeviceCharacteristic()
		discard(r)
		b.ReportMetric(r.Points[len(r.Points)-1].DisplacementNM, "maxΔDW_nm")
	}
}

func BenchmarkFig4_SpikingActivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4SpikingActivity(10)
		if err != nil {
			b.Fatal(err)
		}
		discard(r)
		b.ReportMetric(r.Activity[0], "layer1_rate")
	}
}

func BenchmarkFig9_QuantizationSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig9QuantizationSweep()
		discard(r)
		// Headline: accuracy at the chip's 16-level operating point.
		for _, p := range r.Points {
			if p.Levels == 16 {
				b.ReportMetric(p.Accuracy, "acc@16lv")
				break
			}
		}
	}
}

func BenchmarkFig10_Correlation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10Correlation(6)
		if err != nil {
			b.Fatal(err)
		}
		discard(r)
		b.ReportMetric(r.CorrLongT[len(r.CorrLongT)-1], "deep_corr")
	}
}

func BenchmarkTableI_Conversion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.TableIConversion(15)
		if err != nil {
			b.Fatal(err)
		}
		discard(r)
		var minGap float64 = 1
		for _, row := range r.Rows {
			if gap := row.ANNAccuracy - row.SNNAccuracy; gap < minGap {
				minGap = gap
			}
		}
		b.ReportMetric(minGap, "min_acc_gap")
	}
}

func BenchmarkTableII_Hybrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.TableIIHybrid(15)
		if err != nil {
			b.Fatal(err)
		}
		discard(r)
		b.ReportMetric(float64(len(r.Rows)), "rows")
	}
}

func BenchmarkTableIII_Components(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.TableIIIComponents()
		discard(r)
		b.ReportMetric(r.Spec.ChipPowerW(), "chip_W")
	}
}

func BenchmarkFig12_ISAACLayerwise(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig12ISAACLayerwise()
		discard(r)
		b.ReportMetric(r.Series[0].Mean, "alexnet_ratio")
		b.ReportMetric(r.Series[1].Mean, "mobilenet_ratio")
	}
}

func BenchmarkFig13a_ISAACAverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig13aISAACAverage()
		discard(r)
		sum := 0.0
		for _, row := range r.Rows {
			sum += row.Ratio
		}
		b.ReportMetric(sum/float64(len(r.Rows)), "mean_ratio")
	}
}

func BenchmarkFig13b_INXSLayerwise(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig13bINXSLayerwise()
		discard(r)
		b.ReportMetric(r.Mean, "inxs_ratio")
	}
}

func BenchmarkFig14_PeakPower(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig14PeakPower()
		discard(r)
		max := 0.0
		for _, s := range r.Series {
			if s.Max > max {
				max = s.Max
			}
		}
		b.ReportMetric(max, "max_peak_ratio")
	}
}

func BenchmarkFig15_Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig15ComponentBreakdownVGG()
		discard(r)
		b.ReportMetric(r.TotalSNN.SRAM+r.TotalSNN.EDRAM, "snn_mem_share")
	}
}

func BenchmarkFig16_BreakdownAll(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig16ComponentBreakdownAll()
		discard(r)
		b.ReportMetric(float64(len(r.SNN)+len(r.ANN)), "rows")
	}
}

func BenchmarkFig17_HybridStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig17HybridStudy()
		discard(r)
		// Headline: VGG SNN/ANN energy ratio.
		for _, s := range r.Series {
			if s.Model == "vgg13-cifar10" {
				last := s.Points[len(s.Points)-1]
				b.ReportMetric(1/last.EnergyVsSNN, "vgg_snn_over_ann_energy")
			}
		}
	}
}

func BenchmarkNoise_Resilience(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.NoiseResilience(15, 2)
		if err != nil {
			b.Fatal(err)
		}
		discard(r)
		b.ReportMetric(r.CleanANN-r.NoisyANN, "ann_acc_drop")
	}
}

// --- Ablation benches (DESIGN.md §5) ---

func BenchmarkAblation_NUHierarchyVsADC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationNUHierarchy()
		discard(r)
		b.ReportMetric(r.Rows[2].Value, "energy_ratio")
	}
}

func BenchmarkAblation_MorphableTiles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationMorphableTiles()
		discard(r)
		b.ReportMetric(r.Rows[0].Value, "morphable_util")
	}
}

func BenchmarkAblation_MembraneStorage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationMembraneStorage()
		discard(r)
		b.ReportMetric(r.Rows[2].Value, "energy_ratio")
	}
}

func BenchmarkAblation_BitSerialInput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationBitSerialInput()
		discard(r)
		b.ReportMetric(r.Rows[2].Value, "energy_ratio")
	}
}

func BenchmarkAblation_HybridSplit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationHybridSplit()
		discard(r)
		b.ReportMetric(r.Rows[0].Value/r.Rows[len(r.Rows)-1].Value, "shallow_over_deep")
	}
}

func BenchmarkAblation_ISAACADCScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationISAACADCScaling()
		discard(r)
		b.ReportMetric(r.Rows[len(r.Rows)-1].Value/r.Rows[0].Value, "sensitivity_span")
	}
}

func BenchmarkSensitivity_SNNvsANN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.SensitivitySNNvsANN()
		discard(r)
		max := 0.0
		for _, row := range r.Rows {
			if row.Span > max {
				max = row.Span
			}
		}
		b.ReportMetric(max, "max_knob_span")
	}
}

func BenchmarkSensitivity_Baselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.SensitivityBaselines()
		discard(r)
		b.ReportMetric(r.Rows[0].Span, "isaac_adc_span")
	}
}

func BenchmarkPowerProfile_TraceReplay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.PowerProfile(60)
		if err != nil {
			b.Fatal(err)
		}
		discard(r)
		b.ReportMetric(r.PeakStepPowerW/r.MeanPowerW, "peak_over_mean")
	}
}

func BenchmarkFaultResilience(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.FaultResilience(context.Background(), 10, 50)
		if err != nil {
			b.Fatal(err)
		}
		discard(r)
		none := r.Curve(reliability.ProtectNone).Points
		b.ReportMetric(none[0].Accuracy-none[len(none)-1].Accuracy, "acc_drop_at_20pct")
		sr := r.Curve(reliability.ProtectSpareRemap).Points
		b.ReportMetric(none[0].Accuracy-sr[3].Accuracy, "protected_gap_at_5pct")
	}
}

// --- Session-engine throughput (program-once / run-many, ISSUE 3) ---

// Shared compiled-session fixture: the MLP workload trained once, plus a
// 32-image batch. Building it inside the first iteration would swamp the
// throughput numbers.
var (
	sessOnce sync.Once
	sessPipe *core.Pipeline
	sessImgs []*tensor.Tensor
)

func sessionFixture(b testing.TB) (*core.Pipeline, []*tensor.Tensor) {
	b.Helper()
	sessOnce.Do(func() {
		sim := core.New()
		tr, te := dataset.TrainTest(dataset.MNISTLike, 400, 32, 77)
		net := models.NewMLP3(1, 16, 10, rng.New(5))
		p, err := sim.Build(net, tr, te, core.DefaultPipelineConfig())
		if err != nil {
			panic(err)
		}
		sessPipe = p
		sessImgs = make([]*tensor.Tensor, 32)
		for i := range sessImgs {
			sessImgs[i], _ = te.Sample(i)
		}
	})
	return sessPipe, sessImgs
}

// benchmarkSession streams the fixture batch through one compiled session
// at the given parallelism and reports throughput. Identical seeds make
// every variant's outputs bitwise equal (asserted by the race-enabled
// tests in internal/arch); here only the clock differs.
func benchmarkSession(b *testing.B, parallelism int) {
	pipe, imgs := sessionFixture(b)
	sess, err := pipe.CompileChip(40, parallelism)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	images := 0
	for i := 0; i < b.N; i++ {
		res, err := sess.RunBatch(ctx, imgs)
		if err != nil {
			b.Fatal(err)
		}
		images += len(res)
	}
	b.StopTimer()
	b.ReportMetric(float64(images)/b.Elapsed().Seconds(), "img/s")
}

// lenetFixture is an untrained LeNet-5 on the 16×16 MNIST-like spec,
// converted for the chip: allocation behaviour depends on the compiled
// pipeline's shape, not on what the weights have learned.
var (
	lenetOnce sync.Once
	lenetConv *convert.Converted
	lenetImgs []*tensor.Tensor
)

func lenetFixture(tb testing.TB) (*convert.Converted, []*tensor.Tensor) {
	tb.Helper()
	lenetOnce.Do(func() {
		ds := dataset.Generate(dataset.MNISTLike, 32, 77)
		net := models.NewLeNet5(1, dataset.MNISTLike.Size, dataset.MNISTLike.Classes, rng.New(5))
		c, err := convert.Convert(net, ds, convert.DefaultConfig())
		if err != nil {
			panic(err)
		}
		lenetConv = c
		lenetImgs = make([]*tensor.Tensor, 8)
		for i := range lenetImgs {
			lenetImgs[i], _ = ds.Sample(i)
		}
	})
	return lenetConv, lenetImgs
}

// compileLeNet compiles the LeNet-5 fixture on a noiseless chip (the
// event-driven path), with one worker unless opts set another.
func compileLeNet(tb testing.TB, opts ...arch.Option) *arch.Session {
	tb.Helper()
	c, _ := lenetFixture(tb)
	size := dataset.MNISTLike.Size
	sess, err := core.New().NewChip(nil).Compile(c, append([]arch.Option{
		arch.WithInputShape(1, size, size), arch.WithParallelism(1), arch.WithSeed(3)}, opts...)...)
	if err != nil {
		tb.Fatal(err)
	}
	return sess
}

// TestSessionSteadyStateAllocs pins the engine's allocation contract: a
// warm Session.Run allocates a fixed handful of objects (the result,
// its output tensor, the run's RNG streams and encoder), independent of
// the number of timesteps, positions and stages: a per-step or
// per-position allocation shows up as a count that grows from T=8 to
// T=32. Garbage collections between runs must not change the count:
// the session arena keeps its recycled run states through a GC.
func TestSessionSteadyStateAllocs(t *testing.T) {
	pipe, mlpImgs := sessionFixture(t)
	_, lenetImgs := lenetFixture(t)
	cases := []struct {
		name    string
		img     *tensor.Tensor
		compile func(T int) *arch.Session
	}{
		{"snn-mlp", mlpImgs[0], func(T int) *arch.Session {
			sess, err := pipe.CompileChip(T, 1)
			if err != nil {
				t.Fatal(err)
			}
			return sess
		}},
		{"hybrid-lenet5-split2", lenetImgs[0], func(T int) *arch.Session {
			return compileLeNet(t, arch.WithMode(arch.ModeHybrid), arch.WithHybridSplit(2), arch.WithTimesteps(T))
		}},
		{"ann-lenet5", lenetImgs[0], func(T int) *arch.Session {
			return compileLeNet(t, arch.WithMode(arch.ModeANN))
		}},
	}
	const ceiling = 32
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var perRun [2]float64
			for i, T := range []int{8, 32} {
				sess := tc.compile(T)
				run := func() {
					if _, err := sess.Run(ctx, tc.img); err != nil {
						t.Fatal(err)
					}
				}
				run() // warm the arena so steady state is what gets measured
				perRun[i] = testing.AllocsPerRun(20, run)
				// A GC allocates a few runtime objects of its own (weak
				// handle cleanup), so they are measured alone and taken off.
				gc := func() {
					runtime.GC()
					runtime.GC()
				}
				afterGC := testing.AllocsPerRun(5, func() { gc(); run() }) - testing.AllocsPerRun(5, gc)
				if afterGC != perRun[i] {
					t.Errorf("T=%d: Session.Run allocated %.0f times after two GCs but %.0f without: the arena lost its run states",
						T, afterGC, perRun[i])
				}
			}
			t.Logf("allocations per warm Session.Run: %.0f at T=8, %.0f at T=32", perRun[0], perRun[1])
			if perRun[0] != perRun[1] {
				t.Errorf("Session.Run allocated %.0f times at T=8 but %.0f at T=32: allocations grow with timesteps",
					perRun[0], perRun[1])
			}
			if perRun[1] > ceiling {
				t.Errorf("Session.Run allocated %.0f times, ceiling %d", perRun[1], ceiling)
			}
		})
	}
}

// BenchmarkSession_Hybrid streams the LeNet-5 fixture through a hybrid
// session (split 2: the spiking conv front and the accumulator unit,
// then the ANN tail) at T=40 across NumCPU workers.
func BenchmarkSession_Hybrid(b *testing.B) {
	_, imgs := lenetFixture(b)
	sess := compileLeNet(b, arch.WithMode(arch.ModeHybrid), arch.WithHybridSplit(2),
		arch.WithTimesteps(40), arch.WithParallelism(runtime.NumCPU()))
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	images := 0
	for i := 0; i < b.N; i++ {
		res, err := sess.RunBatch(ctx, imgs)
		if err != nil {
			b.Fatal(err)
		}
		images += len(res)
	}
	b.StopTimer()
	b.ReportMetric(float64(images)/b.Elapsed().Seconds(), "img/s")
}

func BenchmarkSession_Sequential(b *testing.B) { benchmarkSession(b, 1) }
func BenchmarkSession_Parallel4(b *testing.B)  { benchmarkSession(b, 4) }
func BenchmarkSession_ParallelNumCPU(b *testing.B) {
	benchmarkSession(b, runtime.NumCPU())
}

// benchmarkSessionSparse is benchmarkSession at a controlled input
// activity: every pixel carries the target activity as its intensity
// and a gain-1 Poisson encoder turns that into Bernoulli spike planes
// of that expected density — the low-rate regime the event-driven
// stepping engine exists for. The walk matrix's snn-mlp-bernoulli rows
// in internal/arch hold the same inputs bitwise to the reference walk.
func benchmarkSessionSparse(b *testing.B, activity float64) {
	pipe, imgs0 := sessionFixture(b)
	imgs := make([]*tensor.Tensor, len(imgs0))
	for i := range imgs {
		img := tensor.New(imgs0[i].Shape()...)
		d := img.Data()
		for j := range d {
			d[j] = activity
		}
		imgs[i] = img
	}
	sess, err := pipe.CompileChip(40, 1, arch.WithEncoder(func(r *rng.Rand) snn.Encoder {
		return snn.NewPoissonEncoder(1.0, r)
	}))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	images := 0
	for i := 0; i < b.N; i++ {
		res, err := sess.RunBatch(ctx, imgs)
		if err != nil {
			b.Fatal(err)
		}
		images += len(res)
	}
	b.StopTimer()
	b.ReportMetric(float64(images)/b.Elapsed().Seconds(), "img/s")
}

func BenchmarkSession_Sparse10(b *testing.B) { benchmarkSessionSparse(b, 0.10) }
func BenchmarkSession_Sparse1(b *testing.B)  { benchmarkSessionSparse(b, 0.01) }
