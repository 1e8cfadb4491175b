package modelio

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/train"
)

func TestRoundTripPreservesOutputs(t *testing.T) {
	r := rng.New(3)
	tr, te := dataset.TrainTest(dataset.MNISTLike, 200, 60, 5)
	net := models.NewLeNet5(1, 16, 10, r)
	cfg := train.DefaultConfig()
	cfg.Epochs = 3
	train.Run(net, tr, te, cfg)

	var buf bytes.Buffer
	if err := Save(&buf, net); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Name() != net.Name() {
		t.Fatalf("name %q", loaded.Name())
	}
	x, _ := te.Batch(0, 8)
	want := net.Forward(x.Clone(), false)
	got := loaded.Forward(x, false)
	for i := range want.Data() {
		if want.Data()[i] != got.Data()[i] {
			t.Fatalf("output diverged at %d: %v vs %v", i, got.Data()[i], want.Data()[i])
		}
	}
}

func TestRoundTripBatchNormStats(t *testing.T) {
	r := rng.New(7)
	net := models.NewVGG13(3, 16, 10, r)
	// Push data through so the BN running stats are non-trivial.
	x := tensor.New(4, 3, 16, 16)
	for i := range x.Data() {
		x.Data()[i] = r.Float64()
	}
	net.Forward(x, true)

	var buf bytes.Buffer
	if err := Save(&buf, net); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := net.Forward(x.Clone(), false)
	got := loaded.Forward(x.Clone(), false)
	for i := range want.Data() {
		if want.Data()[i] != got.Data()[i] {
			t.Fatal("BN stats not preserved")
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a model")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestLoadRejectsWrongMagic(t *testing.T) {
	var buf bytes.Buffer
	net := models.NewMLP3(1, 16, 10, rng.New(1))
	if err := Save(&buf, net); err != nil {
		t.Fatal(err)
	}
	// Corrupt the stream body.
	b := buf.Bytes()
	for i := range b[20:40] {
		b[20+i] ^= 0xff
	}
	if _, err := Load(bytes.NewReader(b)); err == nil {
		t.Fatal("corrupted stream accepted")
	}
}

func TestAllZooModelsRoundTrip(t *testing.T) {
	r := rng.New(11)
	for name, build := range models.Zoo {
		net := build(3, 16, 10, r.Split())
		var buf bytes.Buffer
		if err := Save(&buf, net); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		if got, want := paramCount(loaded), paramCount(net); got != want {
			t.Fatalf("%s: param count %d vs %d", name, got, want)
		}
	}
}

// paramCount returns the total number of scalar parameters of net.
func paramCount(net *nn.Network) int {
	total := 0
	for _, p := range net.Params() {
		total += p.Value.Size()
	}
	return total
}
