package figio

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// parse reads back the CSV and returns header + rows.
func parse(t *testing.T, b *bytes.Buffer) ([]string, [][]string) {
	t.Helper()
	r := csv.NewReader(b)
	all, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 1 {
		t.Fatal("empty CSV")
	}
	return all[0], all[1:]
}

func TestFig1CSV(t *testing.T) {
	var b bytes.Buffer
	if err := Fig1CSV(&b, experiments.Fig1DeviceCharacteristic()); err != nil {
		t.Fatal(err)
	}
	header, rows := parse(t, &b)
	if len(header) != 3 || header[0] != "current_uA" {
		t.Fatalf("header %v", header)
	}
	if len(rows) != 49 {
		t.Fatalf("rows %d", len(rows))
	}
}

func TestFig12CSV(t *testing.T) {
	var b bytes.Buffer
	if err := Fig12CSV(&b, experiments.Fig12ISAACLayerwise()); err != nil {
		t.Fatal(err)
	}
	_, rows := parse(t, &b)
	if len(rows) != 8+28 { // AlexNet weighted + MobileNet weighted
		t.Fatalf("rows %d", len(rows))
	}
	// Every row must parse as model,layer,float.
	for _, r := range rows {
		if len(r) != 3 || r[0] == "" || !strings.ContainsAny(r[2], "0123456789") {
			t.Fatalf("bad row %v", r)
		}
	}
}

func TestFig13CSVs(t *testing.T) {
	var a, b bytes.Buffer
	if err := Fig13aCSV(&a, experiments.Fig13aISAACAverage()); err != nil {
		t.Fatal(err)
	}
	if err := Fig13bCSV(&b, experiments.Fig13bINXSLayerwise()); err != nil {
		t.Fatal(err)
	}
	_, rowsA := parse(t, &a)
	_, rowsB := parse(t, &b)
	if len(rowsA) != 8 || len(rowsB) != 12 {
		t.Fatalf("rows: %d, %d", len(rowsA), len(rowsB))
	}
}

func TestFig14And17CSVs(t *testing.T) {
	var a, b bytes.Buffer
	if err := Fig14CSV(&a, experiments.Fig14PeakPower()); err != nil {
		t.Fatal(err)
	}
	if err := Fig17CSV(&b, experiments.Fig17HybridStudy()); err != nil {
		t.Fatal(err)
	}
	_, rowsA := parse(t, &a)
	_, rowsB := parse(t, &b)
	if len(rowsA) == 0 || len(rowsB) != 18 { // 3 workloads × 6 points
		t.Fatalf("rows: %d, %d", len(rowsA), len(rowsB))
	}
}

func TestSensitivityCSV(t *testing.T) {
	var b bytes.Buffer
	if err := SensitivityCSV(&b, experiments.SensitivitySNNvsANN()); err != nil {
		t.Fatal(err)
	}
	header, rows := parse(t, &b)
	if header[0] != "knob" || len(rows) != 6 {
		t.Fatalf("header %v rows %d", header, len(rows))
	}
}
