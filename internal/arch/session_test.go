package arch

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"repro/internal/convert"
	"repro/internal/crossbar"
	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/nn"
	"repro/internal/reliability"
	"repro/internal/rng"
	"repro/internal/snn"
	"repro/internal/tensor"
)

// sessionChip builds the noisy chip used by the determinism tests: read
// noise makes the per-run noise streams load-bearing, so any stream
// misordering under concurrency shows up as a bitwise mismatch.
func sessionChip() *Chip {
	return NewChip(device.DefaultParams(), crossbar.Config{ReadNoiseSigma: 0.05}, rng.New(41))
}

// compileSession compiles a fresh session over a fresh chip so every
// comparison sees identically programmed hardware and identical streams.
func compileSession(t *testing.T, c *convert.Converted, opts ...Option) *Session {
	t.Helper()
	return compileOn(t, sessionChip, c, opts...)
}

// assertBatchMatchesSequential checks that RunBatch reproduces the
// sequential Run results bit for bit at every parallelism level the
// acceptance criteria name: 1, 4 and NumCPU.
func assertBatchMatchesSequential(t *testing.T, c *convert.Converted, imgs []*tensor.Tensor, opts ...Option) {
	t.Helper()
	ctx := context.Background()
	seq := compileSession(t, c, opts...)
	want := make([]*RunResult, len(imgs))
	for i, img := range imgs {
		res, err := seq.Run(ctx, img)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	for _, par := range []int{1, 4, runtime.NumCPU()} {
		sess := compileSession(t, c, append(append([]Option(nil), opts...), WithParallelism(par))...)
		got, err := sess.RunBatch(ctx, imgs)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if len(got) != len(want) {
			t.Fatalf("parallelism %d: %d results, want %d", par, len(got), len(want))
		}
		for i := range got {
			wd, gd := want[i].Output.Data(), got[i].Output.Data()
			if len(wd) != len(gd) {
				t.Fatalf("parallelism %d input %d: output size %d, want %d", par, i, len(gd), len(wd))
			}
			for j := range wd {
				if wd[j] != gd[j] {
					t.Fatalf("parallelism %d input %d col %d: %v != %v (batched run not bitwise identical)",
						par, i, j, gd[j], wd[j])
				}
			}
			if got[i].Prediction != want[i].Prediction || got[i].Spikes != want[i].Spikes ||
				got[i].Cycles != want[i].Cycles || got[i].NoCPackets != want[i].NoCPackets ||
				got[i].NoCHops != want[i].NoCHops || got[i].EDRAMAccesses != want[i].EDRAMAccesses {
				t.Fatalf("parallelism %d input %d: stats diverged: %+v vs %+v", par, i, got[i], want[i])
			}
		}
	}
}

func sessionImages(t *testing.T, te *dataset.Dataset, n int) []*tensor.Tensor {
	t.Helper()
	imgs := make([]*tensor.Tensor, n)
	for i := range imgs {
		imgs[i], _ = te.Sample(i)
	}
	return imgs
}

func TestSessionRunBatchBitwiseANN(t *testing.T) {
	c, te := chipFixture(t)
	assertBatchMatchesSequential(t, c, sessionImages(t, te, 8),
		WithMode(ModeANN), WithSeed(42))
}

func TestSessionRunBatchBitwiseSNN(t *testing.T) {
	c, te := chipFixture(t)
	assertBatchMatchesSequential(t, c, sessionImages(t, te, 8),
		WithMode(ModeSNN), WithTimesteps(20), WithSeed(42))
}

func TestSessionRunBatchBitwiseHybrid(t *testing.T) {
	c, te := chipFixture(t)
	assertBatchMatchesSequential(t, c, sessionImages(t, te, 8),
		WithMode(ModeHybrid), WithHybridSplit(1), WithTimesteps(20), WithSeed(42))
}

func TestSessionRunBatchBitwiseConv(t *testing.T) {
	// Grouped convolution exercises the per-run position-replica banks —
	// the largest piece of mutable state the arena has to keep private.
	r := rng.New(19)
	net := nn.NewNetwork("dw",
		nn.NewConv2D("dw", 4, 4, 3, 3, 1, 1, 4, r),
		nn.NewReLU("relu"),
		nn.NewFlatten("flat"),
		nn.NewLinear("fc", 4*8*8, 4, r),
	)
	d := dataset.Generate(dataset.Spec{Name: "x", Classes: 4, Channels: 4, Size: 8, Noise: 0.1, Jitter: 1}, 16, 1)
	c, err := convert.Convert(net, d, convert.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	assertBatchMatchesSequential(t, c, sessionImages(t, d, 6),
		WithMode(ModeSNN), WithTimesteps(10), WithSeed(42), WithInputShape(4, 8, 8))
}

func TestSessionRunCanceledContext(t *testing.T) {
	c, te := chipFixture(t)
	sess := compileSession(t, c, WithMode(ModeSNN), WithTimesteps(20))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	img, _ := te.Sample(0)
	if _, err := sess.Run(ctx, img); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run with canceled context: got %v, want context.Canceled", err)
	}
	if _, err := sess.RunBatch(ctx, sessionImages(t, te, 4)); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunBatch with canceled context: got %v, want context.Canceled", err)
	}
	// The session must remain usable after a cancellation.
	if _, err := sess.Run(context.Background(), img); err != nil {
		t.Fatalf("Run after cancellation: %v", err)
	}
}

func TestSessionCompileErrorWrapsDegraded(t *testing.T) {
	// When the BIST/protect pipeline refuses a core at compile time, the
	// typed chain must survive: errors.As reaches both the *CompileError
	// envelope and the *reliability.DegradedError cause.
	c, _ := chipFixture(t)
	chip := NewChip(device.DefaultParams(), crossbar.Config{}, rng.New(93))
	chip.Rel = &reliability.Config{
		Faults:     reliability.FaultProfile{DeviceRate: 0.3, PermanentFrac: 1, Mode: crossbar.StuckAP},
		Protection: reliability.ProtectWriteVerify,
		Policy:     reliability.DefaultPolicy(),
	}
	_, err := chip.Compile(c, WithMode(ModeSNN), WithTimesteps(5))
	var ce *CompileError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CompileError, got %v", err)
	}
	if ce.Mode != ModeSNN {
		t.Fatalf("CompileError.Mode = %v, want snn", ce.Mode)
	}
	var de *reliability.DegradedError
	if !errors.As(err, &de) {
		t.Fatalf("*reliability.DegradedError lost in the chain: %v", err)
	}
}

func TestSessionCompileValidation(t *testing.T) {
	c, _ := chipFixture(t)
	cases := []struct {
		name string
		opts []Option
	}{
		{"snn without timesteps", []Option{WithMode(ModeSNN)}},
		{"hybrid split out of range", []Option{WithMode(ModeHybrid), WithHybridSplit(0), WithTimesteps(5)}},
		{"unknown mode", []Option{WithMode(Mode(17))}},
	}
	for _, tc := range cases {
		_, err := sessionChip().Compile(c, tc.opts...)
		var ce *CompileError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: want *CompileError, got %v", tc.name, err)
		}
	}
}

func TestSessionCompileConvNeedsShape(t *testing.T) {
	r := rng.New(19)
	net := nn.NewNetwork("dw",
		nn.NewConv2D("dw", 4, 4, 3, 3, 1, 1, 4, r),
		nn.NewReLU("relu"),
		nn.NewFlatten("flat"),
		nn.NewLinear("fc", 4*8*8, 4, r),
	)
	d := dataset.Generate(dataset.Spec{Name: "x", Classes: 4, Channels: 4, Size: 8, Noise: 0.1, Jitter: 1}, 16, 1)
	c, err := convert.Convert(net, d, convert.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, err = sessionChip().Compile(c, WithMode(ModeSNN), WithTimesteps(5))
	var ce *CompileError
	if !errors.As(err, &ce) {
		t.Fatalf("conv model without WithInputShape: want *CompileError, got %v", err)
	}
	// A continuous conv stage takes any size whose windows fit, but the
	// dense stage after it fixes the conv output: a 4×10×10 input to the
	// model compiled for 4×8×8 is the caller's fault, caught before any
	// read.
	ann := compileSession(t, c, WithMode(ModeANN), WithInputShape(4, 8, 8))
	if _, err := ann.Run(context.Background(), tensor.New(4, 10, 10)); !errors.Is(err, ErrInputShape) {
		t.Fatalf("4×10×10 input: want ErrInputShape, got %v", err)
	}
	if _, err := ann.Run(context.Background(), tensor.New(4, 8, 8)); err != nil {
		t.Fatalf("4×8×8 input: %v", err)
	}
}

func TestSessionSharedEncoderSerializes(t *testing.T) {
	c, _ := chipFixture(t)
	sess := compileSession(t, c, WithMode(ModeSNN), WithTimesteps(5),
		WithSharedEncoder(snn.NewPoissonEncoder(1.0, rng.New(1))), WithParallelism(8))
	if p := sess.Parallelism(16); p != 1 {
		t.Fatalf("shared-encoder session parallelism = %d, want 1", p)
	}
}

// TestCheckInputAllocatesNothing pins that the shape walk every run
// starts with costs a valid input no allocation on any walk-matrix row.
func TestCheckInputAllocatesNothing(t *testing.T) {
	for _, m := range walkMatrix(t) {
		sess := compileWalkSession(t, m.c, 0, m.opts...)
		img := m.imgs[0]
		if n := testing.AllocsPerRun(20, func() {
			if err := sess.checkInput(img); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: checkInput allocated %v times", m.name, n)
		}
	}
}
