package crossbar

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/device"
	"repro/internal/rng"
	"repro/internal/tensor"
)

func TestStuckAPPairCancelsExactly(t *testing.T) {
	// Property: whatever weight a pair was programmed to, sticking BOTH of
	// its devices at AP collapses the differential to exactly zero — the
	// two parallel-path currents cancel, so the pair contributes nothing.
	p := device.DefaultParams()
	r := rng.New(11)
	const rows, cols = 8, 8
	for trial := 0; trial < 20; trial++ {
		cb := New(rows, cols, p, Config{}, nil)
		if err := cb.Program(randWeights(r, rows, cols, 1), 1); err != nil {
			t.Fatal(err)
		}
		row, col := r.Intn(rows), r.Intn(cols)
		cb.SetStuck(row, col, true, StuckAP)
		cb.SetStuck(row, col, false, StuckAP)
		if got := cb.EffectiveWeight(row, col); got != 0 {
			t.Fatalf("trial %d: stuck-AP pair weight %v, want exactly 0", trial, got)
		}
		// Drive only the faulted row: the faulted column must read 0.
		x := make([]float64, rows)
		x[row] = 1
		out := readInto(t, cb, x, nil, 0, nil)
		if out[col] != 0 {
			t.Fatalf("trial %d: stuck-AP pair MAC contribution %v, want exactly 0", trial, out[col])
		}
	}
}

func TestStuckPContributesFullScale(t *testing.T) {
	// A single device stuck at P presents full-scale conductance: with the
	// sibling at AP the pair reads ±wmax regardless of the programmed
	// weight.
	p := device.DefaultParams()
	r := rng.New(12)
	const rows, cols = 4, 4
	for trial := 0; trial < 20; trial++ {
		cb := New(rows, cols, p, Config{}, nil)
		if err := cb.Program(tensor.New(rows, cols), 1); err != nil {
			t.Fatal(err)
		}
		row, col := r.Intn(rows), r.Intn(cols)
		plus := r.Bernoulli(0.5)
		cb.SetStuck(row, col, plus, StuckP)
		want := 1.0
		if !plus {
			want = -1.0
		}
		if got := cb.EffectiveWeight(row, col); math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d: stuck-P weight %v, want %v", trial, got, want)
		}
		x := make([]float64, rows)
		x[row] = 1
		out := readInto(t, cb, x, nil, 0, nil)
		if math.Abs(out[col]-want) > 1e-12 {
			t.Fatalf("trial %d: stuck-P MAC %v, want %v", trial, out[col], want)
		}
	}
}

func TestInjectedFaultsSurviveReprogramming(t *testing.T) {
	// Recorded faults are sticky: Program must re-apply them rather than
	// silently overwriting the stuck levels (the old footgun).
	p := device.DefaultParams()
	const rows, cols = 16, 16
	cb := New(rows, cols, p, Config{}, rng.New(5))
	w := randWeights(rng.New(6), rows, cols, 1)
	if err := cb.Program(w, 1); err != nil {
		t.Fatal(err)
	}
	n := cb.InjectStuckFaults(rng.New(7), 0.2, StuckAP)
	if n == 0 {
		t.Fatal("no faults injected at 20%")
	}
	before := make([]float64, 0, rows*cols)
	for row := 0; row < rows; row++ {
		for col := 0; col < cols; col++ {
			before = append(before, cb.EffectiveWeight(row, col))
		}
	}
	if err := cb.Program(w, 1); err != nil {
		t.Fatal(err)
	}
	i := 0
	for row := 0; row < rows; row++ {
		for col := 0; col < cols; col++ {
			if got := cb.EffectiveWeight(row, col); got != before[i] {
				t.Fatalf("pair (%d,%d) changed across reprogram: %v -> %v (faults not sticky)",
					row, col, before[i], got)
			}
			i++
		}
	}
}

func TestVerifyFindsExactlyTheFaultedPairs(t *testing.T) {
	p := device.DefaultParams()
	const rows, cols = 8, 8
	cb := New(rows, cols, p, Config{}, nil)
	if err := cb.Program(randWeights(rng.New(8), rows, cols, 1), 1); err != nil {
		t.Fatal(err)
	}
	if m := cb.Verify(); m.Count() != 0 {
		t.Fatalf("clean array reports %d faults", m.Count())
	}
	cb.SetWeak(2, 3, true, 0)
	cb.SetStuck(5, 1, false, StuckP)
	cb.KillRow(6)
	m := cb.Verify()
	if len(m.DeadRows) != 1 || m.DeadRows[0] != 6 {
		t.Fatalf("dead rows %v, want [6]", m.DeadRows)
	}
	found := map[[2]int]bool{}
	for _, pf := range m.Pairs {
		found[[2]int{pf.Row, pf.Col}] = true
	}
	// SetWeak to level 0 could coincide with the target; be tolerant only
	// about that specific pair if its target really was level 0.
	if !found[[2]int{5, 1}] {
		t.Fatalf("stuck pair (5,1) not found: %+v", m.Pairs)
	}
	if m.ScanReads != rows*cols+rows+cols {
		t.Fatalf("scan reads %d, want %d", m.ScanReads, rows*cols+rows+cols)
	}
}

func TestFaultMapSameSeedDeterministic(t *testing.T) {
	// The same seed must yield an identical FaultMap twice — injection,
	// programming variation and the scan are all replayable.
	p := device.DefaultParams()
	build := func() *FaultMap {
		cfg := Config{ProgramVariationLevels: 0.8, SpareRows: 2, SpareCols: 2}
		cb := New(32, 32, p, cfg, rng.New(42))
		if err := cb.Program(randWeights(rng.New(43), 32, 32, 1), 1); err != nil {
			t.Fatal(err)
		}
		cb.InjectStuckFaults(rng.New(44), 0.1, StuckAP)
		cb.KillRow(3)
		return cb.Verify()
	}
	m1, m2 := build(), build()
	if !reflect.DeepEqual(m1, m2) {
		t.Fatalf("fault maps differ across identical seeds:\n%+v\n%+v", m1, m2)
	}
	if m1.Count() == 0 {
		t.Fatal("fixture produced no faults")
	}
}

func TestSpareRemapRestoresLine(t *testing.T) {
	p := device.DefaultParams()
	cfg := Config{SpareRows: 2, SpareCols: 2}
	const rows, cols = 8, 8
	cb := New(rows, cols, p, cfg, nil)
	w := randWeights(rng.New(9), rows, cols, 1)
	if err := cb.Program(w, 1); err != nil {
		t.Fatal(err)
	}
	want := make([]float64, cols)
	for col := 0; col < cols; col++ {
		want[col] = cb.EffectiveWeight(4, col)
	}
	cb.KillRow(4)
	if m := cb.Verify(); len(m.DeadRows) != 1 {
		t.Fatalf("dead rows %v", m.DeadRows)
	}
	if !cb.RemapRow(4) {
		t.Fatal("remap failed with spares available")
	}
	if m := cb.Verify(); m.Count() != 0 {
		t.Fatalf("faults remain after remap: %d", m.Count())
	}
	for col := 0; col < cols; col++ {
		if got := cb.EffectiveWeight(4, col); got != want[col] {
			t.Fatalf("col %d: remapped weight %v, want %v", col, got, want[col])
		}
	}
	if left := len(cb.spareRowsFree); left != 1 {
		t.Fatalf("spare rows left %d, want 1", left)
	}
}

func TestCompensatePairAbsorbsStuckDevice(t *testing.T) {
	p := device.DefaultParams()
	const rows, cols = 4, 4
	cb := New(rows, cols, p, Config{}, nil)
	// Mid-scale weights leave compensation headroom on the sibling.
	w := tensor.New(rows, cols)
	for i := range w.Data() {
		w.Data()[i] = 0.2
	}
	if err := cb.Program(w, 1); err != nil {
		t.Fatal(err)
	}
	want := cb.EffectiveWeight(1, 1)
	// Plus device stuck full-on: the minus sibling compensates by rising
	// to (stuck − targetDiff), well within its range for a 0.2 weight.
	cb.SetStuck(1, 1, true, StuckP)
	if cb.EffectiveWeight(1, 1) == want {
		t.Fatal("stuck device did not disturb the pair")
	}
	if resid := cb.CompensatePair(1, 1); resid != 0 {
		t.Fatalf("compensation residual %d", resid)
	}
	if got := cb.EffectiveWeight(1, 1); got != want {
		t.Fatalf("compensated weight %v, want %v", got, want)
	}
}

func TestRetentionDriftAndRefresh(t *testing.T) {
	p := device.DefaultParams()
	cfg := Config{DriftTauSteps: 50}
	cb := New(2, 2, p, cfg, nil)
	w := tensor.FromSlice([]float64{1, 1, 1, 1}, 2, 2)
	if err := cb.Program(w, 1); err != nil {
		t.Fatal(err)
	}
	fresh := readInto(t, cb, []float64{1, 1}, nil, 0, nil)
	cb.Tick(100)
	aged := readInto(t, cb, []float64{1, 1}, nil, 0, nil)
	wantScale := math.Exp(-100.0 / 50.0)
	if math.Abs(aged[0]-fresh[0]*wantScale) > 1e-9 {
		t.Fatalf("drift scale: aged %v, fresh %v, want factor %v", aged[0], fresh[0], wantScale)
	}
	cb.Refresh()
	if cb.Age() != 0 {
		t.Fatalf("refresh did not reset age: %d", cb.Age())
	}
	restored := readInto(t, cb, []float64{1, 1}, nil, 0, nil)
	if restored[0] != fresh[0] {
		t.Fatalf("refresh did not restore current: %v vs %v", restored[0], fresh[0])
	}
}
