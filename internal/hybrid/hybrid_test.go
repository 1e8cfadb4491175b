package hybrid

import (
	"sync"
	"testing"

	"repro/internal/convert"
	"repro/internal/dataset"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/train"
)

var (
	once      sync.Once
	mlpConv   *convert.Converted
	lenetConv *convert.Converted
	teData    *dataset.Dataset
	mlpANN    *nn.Network
)

func fixtures(t *testing.T) (*convert.Converted, *convert.Converted, *dataset.Dataset) {
	t.Helper()
	once.Do(func() {
		tr, te := dataset.TrainTest(dataset.MNISTLike, 400, 150, 51)
		teData = te

		mlpANN = models.NewMLP3(1, 16, 10, rng.New(17))
		cfg := train.DefaultConfig()
		cfg.Epochs = 6
		train.Run(mlpANN, tr, te, cfg)
		var err error
		mlpConv, err = convert.Convert(mlpANN, tr, convert.DefaultConfig())
		if err != nil {
			panic(err)
		}

		lenet := models.NewLeNet5(1, 16, 10, rng.New(18))
		cfg.Epochs = 5
		train.Run(lenet, tr, te, cfg)
		lenetConv, err = convert.Convert(lenet, tr, convert.DefaultConfig())
		if err != nil {
			panic(err)
		}
	})
	return mlpConv, lenetConv, teData
}

func TestSplitBounds(t *testing.T) {
	c, _, _ := fixtures(t)
	// MLP has 3 weighted layers; valid splits are 1 and 2.
	if _, err := Split(c, 0); err == nil {
		t.Fatal("split 0 must fail")
	}
	if _, err := Split(c, 3); err == nil {
		t.Fatal("split = total weighted must fail (no spiking layer left)")
	}
	m, err := Split(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.NonSpiking != 1 || m.SpikingWeighted != 2 {
		t.Fatalf("split accounting: non=%d spiking=%d", m.NonSpiking, m.SpikingWeighted)
	}
}

func TestTailStartsAtWeightedLayer(t *testing.T) {
	c, lc, _ := fixtures(t)
	for _, tc := range []struct {
		name string
		conv *convert.Converted
		max  int
	}{{"mlp", c, 2}, {"lenet", lc, 3}} {
		for k := 1; k <= tc.max; k++ {
			m, err := Split(tc.conv, k)
			if err != nil {
				t.Fatalf("%s split %d: %v", tc.name, k, err)
			}
			switch l := m.Folded.Layers()[m.TailStart].(type) {
			case *nn.Conv2D, *nn.Linear:
			default:
				t.Fatalf("%s split %d: tail starts at non-weighted layer %s", tc.name, k, l.Name())
			}
		}
	}
}

func TestHybridAccuracyNearSNN(t *testing.T) {
	c, _, te := fixtures(t)
	snnAcc := c.Evaluate(te, 100, 60, 3).Accuracy
	m, err := Split(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	hybAcc := m.Evaluate(te, 100, 60, 3)
	// Hybrid with 1 ANN layer should be at least as good as the pure SNN
	// (within noise): the ANN read-out removes output-stage spike noise.
	if hybAcc < snnAcc-0.10 {
		t.Fatalf("hybrid acc %.3f well below SNN %.3f", hybAcc, snnAcc)
	}
}

func TestHybridBeatsSNNAtShortWindows(t *testing.T) {
	// The paper's motivation: at small T, hybrids reach higher accuracy
	// than pure SNNs because fewer spiking layers attenuate the signal.
	_, lc, te := fixtures(t)
	const T = 8
	snnAcc := lc.Evaluate(te, T, 60, 9).Accuracy
	m, err := Split(lc, 3)
	if err != nil {
		t.Fatal(err)
	}
	hybAcc := m.Evaluate(te, T, 60, 9)
	if hybAcc < snnAcc-0.05 {
		t.Fatalf("at T=%d hybrid (%.3f) should not trail SNN (%.3f)", T, hybAcc, snnAcc)
	}
}

func TestRunResultFields(t *testing.T) {
	c, _, te := fixtures(t)
	m, err := Split(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	img, _ := te.Sample(0)
	res := m.Run(img, 50, rng.New(1))
	if res.Output.Size() != 10 {
		t.Fatalf("output size %d", res.Output.Size())
	}
	if res.FrontSpikes <= 0 {
		t.Fatal("front produced no spikes")
	}
	if res.Timesteps != 50 {
		t.Fatalf("timesteps %d", res.Timesteps)
	}
	p := res.Predict()
	if p < 0 || p > 9 {
		t.Fatalf("prediction %d", p)
	}
}

func TestDeeperSplitMoreANN(t *testing.T) {
	// With all but one layer in ANN mode and a reasonable window, the
	// hybrid should approach the ANN accuracy.
	c, _, te := fixtures(t)
	annAcc := train.Evaluate(mlpANN, te, 32)
	m, err := Split(c, 2) // only fc1 spiking
	if err != nil {
		t.Fatal(err)
	}
	hybAcc := m.Evaluate(te, 150, 80, 11)
	if hybAcc < annAcc-0.15 {
		t.Fatalf("deep hybrid %.3f too far below ANN %.3f", hybAcc, annAcc)
	}
}
