package main

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the program must honour.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// smoke runs one workload at test scale for half a second.
func smoke(t *testing.T, workload string, trace, corrupt bool) (result, stamp) {
	t.Helper()
	o := options{workload: workload, seed: 7, seconds: 0.5, trace: trace, out: t.TempDir(), smoke: true, corrupt: corrupt}
	res, st, err := execute(context.Background(), o)
	if err != nil {
		t.Fatalf("%s (trace %v): %v", workload, trace, err)
	}
	return res, st
}

// checkMetrics demands exactly the named metrics, each with its unit.
func checkMetrics(t *testing.T, label string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s: metric %s missing", label, name)
			continue
		}
		if m.Unit != unit {
			t.Errorf("%s: metric %s has unit %q, want %q", label, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s is not declared in BENCHMARK.json", label, name)
		}
	}
}

func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	s := loadSpec(t)
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range s.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range s.PerLayer {
		layer[m.Name] = m.Unit
	}
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		res, _ := smoke(t, w.Name, false, false)
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct %v, %d of %d failed", w.Name, res.Correct, res.Failed, res.Attempted)
		}
		checkMetrics(t, w.Name, res.Metrics, e2e)
		for name, m := range res.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, m.Value)
			}
		}
		res, _ = smoke(t, w.Name, true, false)
		if !res.Correct {
			t.Errorf("%s traced: %d of %d failed", w.Name, res.Failed, res.Attempted)
		}
		checkMetrics(t, w.Name+" traced", res.Metrics, layer)
	}
}

func TestForcedMismatchFailsRun(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, _ := smoke(t, w.name, trace, true)
			if res.Correct || res.Failed < 1 {
				t.Errorf("%s (trace %v): corrupted output passed: correct %v, failed %d", w.name, trace, res.Correct, res.Failed)
			}
		}
	}
}

// TestVerdictSeparatesMismatches: rejected or errored operations raise
// the error rate, only a mismatch makes the run incorrect.
func TestVerdictSeparatesMismatches(t *testing.T) {
	if r := verdict(10, 2, 0, nil); !r.Correct || r.Failed != 2 {
		t.Errorf("2 rejections: correct %v, failed %d; want true, 2", r.Correct, r.Failed)
	}
	if r := verdict(10, 2, 1, nil); r.Correct || r.Failed != 3 {
		t.Errorf("2 rejections and a mismatch: correct %v, failed %d; want false, 3", r.Correct, r.Failed)
	}
}

// TestStampDeterministic runs the same seed twice, untraced and traced:
// the outputs digest and simulated counts must not move, whichever path
// (RunBatch or one Run at a time) produced them.
func TestStampDeterministic(t *testing.T) {
	for _, name := range []string{"snn-mlp", "serve-mlp"} {
		_, a := smoke(t, name, false, false)
		_, b := smoke(t, name, true, false)
		a.Env, b.Env = envStamp{}, envStamp{}
		if a != b {
			t.Errorf("%s: stamps differ\n untraced %+v\n traced   %+v", name, a, b)
		}
		if a.Evaluated == 0 || a.Cycles == 0 {
			t.Errorf("%s: empty stamp %+v", name, a)
		}
	}
}

func TestRunRejectsUnknownWorkload(t *testing.T) {
	var out, errs strings.Builder
	if code := run([]string{"--workload", "nope", "--out", t.TempDir()}, &out, &errs); code == 0 {
		t.Fatalf("unknown workload exited 0")
	}
	if out.Len() != 0 {
		t.Errorf("failed run printed a result: %q", out.String())
	}
}
