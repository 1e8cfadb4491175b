// Package figio exports experiment results as CSV so the regenerated
// tables and figures can be plotted with external tooling. Every emitter
// writes one figure's data with a header row; cmd/nebula-bench's -csv
// flag drives them.
package figio

import (
	"encoding/csv"
	"io"
	"strconv"

	"repro/internal/experiments"
)

// writeRows writes a header plus numeric rows as CSV.
func writeRows(w io.Writer, header []string, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func f(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }

// Fig1CSV writes the device characteristic sweep.
func Fig1CSV(w io.Writer, r experiments.Fig1Result) error {
	rows := make([][]string, len(r.Points))
	for i, p := range r.Points {
		rows[i] = []string{f(p.CurrentUA), f(p.DisplacementNM), f(p.ConductanceUS)}
	}
	return writeRows(w, []string{"current_uA", "displacement_nm", "conductance_uS"}, rows)
}

// Fig12CSV writes the layer-wise ISAAC/NEBULA ratios.
func Fig12CSV(w io.Writer, r experiments.Fig12Result) error {
	var rows [][]string
	for _, s := range r.Series {
		for i, name := range s.Layers {
			rows = append(rows, []string{s.Model, name, f(s.Ratio[i])})
		}
	}
	return writeRows(w, []string{"model", "layer", "isaac_over_nebula"}, rows)
}

// Fig13aCSV writes the cross-benchmark ISAAC ratios.
func Fig13aCSV(w io.Writer, r experiments.Fig13aResult) error {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{row.Model, f(row.Ratio)}
	}
	return writeRows(w, []string{"model", "isaac_over_nebula"}, rows)
}

// Fig13bCSV writes the layer-wise INXS ratios.
func Fig13bCSV(w io.Writer, r experiments.Fig13bResult) error {
	rows := make([][]string, len(r.Layers))
	for i, name := range r.Layers {
		rows[i] = []string{name, f(r.Ratio[i])}
	}
	return writeRows(w, []string{"layer", "inxs_over_nebula"}, rows)
}

// Fig14CSV writes the layer-wise peak power ratios.
func Fig14CSV(w io.Writer, r experiments.Fig14Result) error {
	var rows [][]string
	for _, s := range r.Series {
		for i, name := range s.Layers {
			rows = append(rows, []string{s.Model, name, f(s.Ratio[i])})
		}
	}
	return writeRows(w, []string{"model", "layer", "ann_peak_over_snn_peak"}, rows)
}

// Fig17CSV writes the hybrid sweep points.
func Fig17CSV(w io.Writer, r experiments.Fig17Result) error {
	var rows [][]string
	for _, s := range r.Series {
		for _, p := range s.Points {
			rows = append(rows, []string{
				s.Model, p.Mode, strconv.Itoa(p.Timesteps),
				f(p.EnergyVsSNN), f(p.PowerVsANN),
			})
		}
	}
	return writeRows(w, []string{"model", "mode", "timesteps", "energy_vs_snn", "power_vs_ann"}, rows)
}

// TableICSV writes the conversion accuracy table.
func TableICSV(w io.Writer, r experiments.TableIResult) error {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{row.Model, f(row.ANNAccuracy), f(row.SNNAccuracy), strconv.Itoa(row.Timesteps)}
	}
	return writeRows(w, []string{"model", "ann_accuracy", "snn_accuracy", "timesteps"}, rows)
}

// TableIICSV writes the hybrid accuracy sweep.
func TableIICSV(w io.Writer, r experiments.TableIIResult) error {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{row.Model, row.Mode, strconv.Itoa(row.Timesteps), f(row.Accuracy)}
	}
	return writeRows(w, []string{"model", "mode", "timesteps", "accuracy"}, rows)
}

// FaultCSV writes the three-curve fault-resilience study: one row per
// (protection, rate) point with accuracy, refusal count and the headline
// mitigation counters.
func FaultCSV(w io.Writer, r experiments.FaultResilienceResult) error {
	var rows [][]string
	for _, c := range r.Curves {
		for _, p := range c.Points {
			h := p.Health
			rows = append(rows, []string{
				c.Protection.String(), f(p.FaultRate), f(p.Accuracy),
				strconv.Itoa(p.Refused),
				strconv.FormatInt(h.FaultsFound, 10),
				strconv.FormatInt(h.Repaired, 10),
				strconv.FormatInt(h.Compensated, 10),
				strconv.FormatInt(h.RowsRemapped+h.ColsRemapped, 10),
				strconv.FormatInt(h.TilesRetired, 10),
				strconv.FormatInt(h.Unmitigated, 10),
			})
		}
	}
	return writeRows(w, []string{
		"protection", "fault_rate", "accuracy", "refused",
		"faults_found", "repaired", "compensated", "lines_remapped", "tiles_retired", "unmitigated",
	}, rows)
}

// ProfileCSV writes a per-timestep power profile.
func ProfileCSV(w io.Writer, r experiments.PowerProfileResult) error {
	rows := make([][]string, len(r.StepPowerW))
	for i, p := range r.StepPowerW {
		rows[i] = []string{strconv.Itoa(i), f(p)}
	}
	return writeRows(w, []string{"timestep", "power_W"}, rows)
}

// SensitivityCSV writes a sensitivity study.
func SensitivityCSV(w io.Writer, r experiments.SensitivityResult) error {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{row.Knob, f(row.Low), f(row.Baseline), f(row.High), f(row.Span)}
	}
	return writeRows(w, []string{"knob", "at_0.5x", "baseline", "at_2x", "span"}, rows)
}
