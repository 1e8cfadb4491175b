package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// testLayout returns a small two-stage spiking layout.
func testLayout() *Layout {
	return &Layout{
		Model: "mlp", Mode: "snn",
		Stages: []StageInfo{
			{Name: "input", Kind: "encode", Domain: "input", Core: -1},
			{Name: "fc1", Kind: "dense", Domain: "snn", Core: 0, Tiles: 1},
		},
	}
}

// shard builds a filled RunRecord for the layout.
func shard(l *Layout, scale int64) *RunRecord {
	rr := NewRunRecord(l)
	rr.Stage(0).SpikesEmitted = 10 * scale
	c := rr.Stage(1)
	c.SpikesEmitted = 3 * scale
	c.MACReads = 7 * scale
	c.ActiveRowSum = 21 * scale
	c.ADCConversions = scale
	c.NoCPackets = scale
	c.NoCHops = scale
	c.EDRAMAccesses = 2 * scale
	c.Cycles = 5 * scale
	c.OutputCurrentUA = 0.125 * float64(scale)
	return rr
}

func TestRecorderMergeAndSnapshot(t *testing.T) {
	rec := NewRecorder()
	l := testLayout()
	if err := rec.Bind(l); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 3; i++ {
		if err := rec.MergeRun(shard(l, i)); err != nil {
			t.Fatal(err)
		}
	}
	s := rec.Snapshot()
	if s.Runs != 3 {
		t.Fatalf("runs = %d, want 3", s.Runs)
	}
	if got := s.Stages[1].MACReads; got != 7*(1+2+3) {
		t.Fatalf("stage MACReads = %d, want %d", got, 7*6)
	}
	if got := s.Totals.SpikesEmitted; got != 13*(1+2+3) {
		t.Fatalf("total spikes = %d, want %d", got, 13*6)
	}
	//nebula:lint-ignore float-eq exact sum of exactly representable values
	if s.Totals.OutputCurrentUA != 0.125*6 {
		t.Fatalf("total current = %v, want %v", s.Totals.OutputCurrentUA, 0.125*6)
	}
}

func TestRecorderBindRejectsDifferentSchema(t *testing.T) {
	rec := NewRecorder()
	if err := rec.Bind(testLayout()); err != nil {
		t.Fatal(err)
	}
	other := testLayout()
	other.Mode = "ann"
	if err := rec.Bind(other); err == nil {
		t.Fatal("Bind accepted a mismatched schema")
	}
	// Re-binding the same schema (e.g. a second session over the same
	// model) is allowed.
	if err := rec.Bind(testLayout()); err != nil {
		t.Fatalf("Bind rejected an equal schema: %v", err)
	}
}

func TestMergeRunRequiresBind(t *testing.T) {
	rec := NewRecorder()
	if err := rec.MergeRun(shard(testLayout(), 1)); err == nil {
		t.Fatal("MergeRun accepted a shard before Bind")
	}
}

func TestSnapshotExportDeterminism(t *testing.T) {
	build := func() Snapshot {
		rec := NewRecorder()
		l := testLayout()
		if err := rec.Bind(l); err != nil {
			t.Fatal(err)
		}
		rec.RecordProgram(ProgramRecord{Compiles: 1, ProgramEnergyFJ: 42.5, BISTReads: 9})
		for i := int64(1); i <= 4; i++ {
			if err := rec.MergeRun(shard(l, i)); err != nil {
				t.Fatal(err)
			}
		}
		return rec.Snapshot()
	}
	var p1, p2 bytes.Buffer
	j1, err := json.Marshal(build())
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(build())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatal("JSON export is not deterministic")
	}
	if err := build().WritePrometheus(&p1); err != nil {
		t.Fatal(err)
	}
	if err := build().WritePrometheus(&p2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p1.Bytes(), p2.Bytes()) {
		t.Fatal("Prometheus export is not deterministic")
	}
	text := p1.String()
	for _, want := range []string{
		`nebula_obs_info{model="mlp",mode="snn"} 1`,
		"nebula_obs_runs_total 4",
		`nebula_obs_mac_reads_total{stage="1",layer="fc1",kind="dense",domain="snn",core="0"} 70`,
		"nebula_obs_bist_reads_total 9",
		"nebula_obs_program_energy_femtojoules_total 42.5",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Prometheus export missing %q\n%s", want, text)
		}
	}
}

func TestAttribute(t *testing.T) {
	rec := NewRecorder()
	l := testLayout()
	if err := rec.Bind(l); err != nil {
		t.Fatal(err)
	}
	if err := rec.MergeRun(shard(l, 2)); err != nil {
		t.Fatal(err)
	}
	a := DefaultAttribution(rec.Snapshot())
	if len(a.Stages) != 2 {
		t.Fatalf("attribution has %d stages, want 2", len(a.Stages))
	}
	if !(a.TotalJ > 0) {
		t.Fatalf("total energy = %v, want > 0", a.TotalJ)
	}
	fc1 := a.Stages[1]
	if !(fc1.CrossbarJ > 0 && fc1.NeuronJ > 0 && fc1.EDRAMJ > 0 && fc1.NoCJ > 0) {
		t.Fatalf("expected nonzero components, got %+v", fc1)
	}
	sum := fc1.CrossbarJ + fc1.DriverJ + fc1.NeuronJ + fc1.ADCJ + fc1.SRAMJ + fc1.EDRAMJ + fc1.NoCJ
	if diff := sum - fc1.TotalJ; diff > 1e-30 || diff < -1e-30 {
		t.Fatalf("TotalJ %v does not match component sum %v", fc1.TotalJ, sum)
	}
	// Doubling every counter doubles every attributed joule.
	rec2 := NewRecorder()
	if err := rec2.Bind(l); err != nil {
		t.Fatal(err)
	}
	if err := rec2.MergeRun(shard(l, 4)); err != nil {
		t.Fatal(err)
	}
	a2 := DefaultAttribution(rec2.Snapshot())
	if diff := a2.TotalJ - 2*a.TotalJ; diff > 1e-25 || diff < -1e-25 {
		t.Fatalf("attribution not linear in counters: %v vs 2·%v", a2.TotalJ, a.TotalJ)
	}
}
