package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/arch"
	"repro/internal/convert"
	"repro/internal/crossbar"
	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/models"
	"repro/internal/reliability"
	"repro/internal/rng"
	"repro/internal/snn"
	"repro/internal/tensor"
)

// FaultPoint is one fault-rate operating point of one protection curve.
type FaultPoint struct {
	FaultRate float64
	Accuracy  float64
	// Refused counts samples the chip declined to compute (DegradedError);
	// refused samples score as mispredictions.
	Refused int
	// Health is the chip's cumulative reliability report at this point.
	Health reliability.Report
}

// FaultCurve is the accuracy-vs-rate sweep under one protection level.
type FaultCurve struct {
	Protection reliability.Protection
	Points     []FaultPoint
}

// FaultResilienceResult is the three-curve fault study: hardware SNN
// accuracy as device fault rates grow, unprotected vs write-verify vs
// sparing+remap — the abstract's "as efficient and fault-tolerant as the
// brain" claim, exercised on simulated crossbars with the reliability
// subsystem on and off.
type FaultResilienceResult struct {
	Model  string
	Rates  []float64
	Curves []FaultCurve
}

// DefaultFaultRates returns the device fault rates the published study
// sweeps.
func DefaultFaultRates() []float64 {
	return []float64{0, 0.005, 0.01, 0.05, 0.10, 0.20}
}

// faultSeed derives the per-rate chip seed. Deriving from the rate value
// (not its index) keeps every operating point's fault pattern stable when
// rates are added or removed, and keeps it identical across the three
// protection curves so they fight the same defects.
func faultSeed(rate float64) uint64 {
	return Seed ^ math.Float64bits(rate)
}

// FaultResilience trains the scaled MLP once, lowers it onto the chip
// and sweeps the standard fault rates under all three protection levels.
func FaultResilience(ctx context.Context, samples, timesteps int) (FaultResilienceResult, error) {
	return FaultResilienceSweep(ctx, DefaultFaultRates(), samples, timesteps, 400, 120)
}

// FaultResilienceSmoke is the tier-1 smoke configuration: two rates,
// few samples, short windows — enough to exercise injection, BIST,
// write-verify, remapping and the degradation path in seconds.
//
//nebula:test-support the configuration `make smoke` runs through TestFaultResilienceSmoke
func FaultResilienceSmoke(ctx context.Context) (FaultResilienceResult, error) {
	return FaultResilienceSweep(ctx, []float64{0, 0.05}, 4, 10, 150, 60)
}

// FaultResilienceSweep runs the three-curve study over explicit rates.
// One model is trained and converted once; every (rate, protection)
// point re-derives the chip from the rate's deterministic seed, so the
// injected defect population at a given rate is identical across curves.
//
// Every sample compiles a fresh session on the rate's chip, so each
// image sees a newly programmed (and newly faulted, and newly repaired)
// set of cores, and runs it once with its own encoder.
func FaultResilienceSweep(ctx context.Context, rates []float64, samples, timesteps, nTrain, nTest int) (FaultResilienceResult, error) {
	tm := trainScaled(benchmarkSpec{"mlp3/mnist-like", models.NewMLP3, dataset.MNISTLike, 8, 0}, nTrain, nTest)
	conv, err := convert.Convert(tm.net, tm.trainDS, convert.DefaultConfig())
	if err != nil {
		return FaultResilienceResult{}, fmt.Errorf("faults: %w", err)
	}
	res := FaultResilienceResult{Model: tm.name, Rates: rates}
	for _, prot := range []reliability.Protection{
		reliability.ProtectNone, reliability.ProtectWriteVerify, reliability.ProtectSpareRemap,
	} {
		curve := FaultCurve{Protection: prot}
		for _, rate := range rates {
			chip := arch.NewChip(device.DefaultParams(), crossbar.Config{}, rng.New(faultSeed(rate)))
			chip.Rel = reliability.StudyConfig(rate, prot)
			correct, refused := 0, 0
			r := rng.New(Seed + 7)
			for i := 0; i < samples; i++ {
				img, label := tm.testDS.Sample(i)
				run, err := runSample(ctx, chip, conv, img, timesteps, snn.NewPoissonEncoder(1.0, r.Split()))
				if err != nil {
					var de *reliability.DegradedError
					if errors.As(err, &de) {
						refused++
						continue
					}
					return FaultResilienceResult{}, fmt.Errorf("faults: %s rate %g sample %d: %w", prot, rate, i, err)
				}
				if run.Prediction == label {
					correct++
				}
			}
			curve.Points = append(curve.Points, FaultPoint{
				FaultRate: rate,
				Accuracy:  float64(correct) / float64(samples),
				Refused:   refused,
				Health:    chip.Health(),
			})
		}
		res.Curves = append(res.Curves, curve)
	}
	return res, nil
}

// runSample compiles one session for img on chip and runs it once with
// enc.
func runSample(ctx context.Context, chip *arch.Chip, conv *convert.Converted, img *tensor.Tensor, timesteps int, enc snn.Encoder) (*arch.RunResult, error) {
	sess, err := chip.Compile(conv,
		arch.WithMode(arch.ModeSNN),
		arch.WithTimesteps(timesteps),
		arch.WithSharedEncoder(enc),
		arch.WithInputShape(img.Shape()...))
	if err != nil {
		return nil, err
	}
	return sess.Run(ctx, img)
}

// Curve returns the sweep for one protection level, or nil.
func (r FaultResilienceResult) Curve(p reliability.Protection) *FaultCurve {
	for i := range r.Curves {
		if r.Curves[i].Protection == p {
			return &r.Curves[i]
		}
	}
	return nil
}

// Render writes the three fault curves side by side.
func (r FaultResilienceResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Fault resilience on simulated crossbars (%s)\n", r.Model)
	fmt.Fprintln(w, "  device faults: 80% weak / 20% stuck-AP; dead lines at rate/20")
	fmt.Fprint(w, "  fault rate")
	for _, c := range r.Curves {
		fmt.Fprintf(w, "  %-14s", c.Protection)
	}
	fmt.Fprintln(w)
	for i := range r.Rates {
		fmt.Fprintf(w, "  %9.3f ", r.Rates[i])
		for _, c := range r.Curves {
			if i >= len(c.Points) {
				continue
			}
			p := c.Points[i]
			mark := " "
			if p.Refused > 0 {
				mark = "!"
			}
			fmt.Fprintf(w, "  %.4f%s       ", p.Accuracy, mark)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "  (! = chip refused samples: degradation policy tripped)")
	if c := r.Curve(reliability.ProtectSpareRemap); c != nil && len(c.Points) > 0 {
		last := c.Points[len(c.Points)-1]
		h := last.Health
		fmt.Fprintf(w, "  sparing+remap at rate %.3f: %d repaired, %d compensated, %d rows + %d cols remapped, %d tiles retired, %.3f%% unmitigated\n",
			last.FaultRate, h.Repaired, h.Compensated, h.RowsRemapped, h.ColsRemapped,
			h.TilesRetired, h.UnmitigatedFrac()*100)
	}
}
