package obs

import (
	"bytes"
	"io"
	"strconv"
	"strings"
)

// counterSeries defines the Prometheus series derived from one Counters
// bucket, in fixed emission order.
var counterSeries = []struct {
	name, help string
	get        func(Counters) float64
}{
	{"nebula_obs_spikes_total", "Output spikes emitted per pipeline stage.",
		func(c Counters) float64 { return float64(c.SpikesEmitted) }},
	{"nebula_obs_mac_reads_total", "Atomic-crossbar evaluations per pipeline stage.",
		func(c Counters) float64 { return float64(c.MACReads) }},
	{"nebula_obs_active_rows_total", "Driven crossbar rows summed over evaluations.",
		func(c Counters) float64 { return float64(c.ActiveRowSum) }},
	{"nebula_obs_adc_conversions_total", "Spill-path partial-sum digitizations.",
		func(c Counters) float64 { return float64(c.ADCConversions) }},
	{"nebula_obs_noc_packets_total", "Inter-stage NoC packets.",
		func(c Counters) float64 { return float64(c.NoCPackets) }},
	{"nebula_obs_noc_hops_total", "Mesh hops traversed by inter-stage packets.",
		func(c Counters) float64 { return float64(c.NoCHops) }},
	{"nebula_obs_edram_accesses_total", "eDRAM transactions (pipeline stages 1 and 3).",
		func(c Counters) float64 { return float64(c.EDRAMAccesses) }},
	{"nebula_obs_cycles_total", "110 ns pipeline cycles consumed.",
		func(c Counters) float64 { return float64(c.Cycles) }},
	{"nebula_obs_silent_stage_skips_total", "Stage-timesteps skipped entirely on an all-zero spike plane.",
		func(c Counters) float64 { return float64(c.SilentStageSkips) }},
	{"nebula_obs_spikes_skipped_total", "Silent input slots not driven by the event-driven path.",
		func(c Counters) float64 { return float64(c.SpikesSkipped) }},
	{"nebula_obs_packed_words_total", "Packed spike-plane words processed.",
		func(c Counters) float64 { return float64(c.PackedWords) }},
	{"nebula_obs_repeat_reads_total", "Crossbar reads served from the timestep-repeat cache.",
		func(c Counters) float64 { return float64(c.RepeatReads) }},
	{"nebula_obs_output_current_microamps_total", "Accumulated column current magnitude in microamps.",
		func(c Counters) float64 { return c.OutputCurrentUA }},
}

// programSeries defines the compile-time series.
var programSeries = []struct {
	name, help string
	get        func(ProgramRecord) float64
}{
	{"nebula_obs_compiles_total", "Sessions compiled against the recorder.",
		func(p ProgramRecord) float64 { return float64(p.Compiles) }},
	{"nebula_obs_program_energy_femtojoules_total", "Synapse programming energy in fJ.",
		func(p ProgramRecord) float64 { return p.ProgramEnergyFJ }},
	{"nebula_obs_bist_reads_total", "BIST scan reads during compilation.",
		func(p ProgramRecord) float64 { return float64(p.BISTReads) }},
	{"nebula_obs_write_retries_total", "Write-verify repair writes during compilation.",
		func(p ProgramRecord) float64 { return float64(p.WriteRetries) }},
	{"nebula_obs_faults_found_total", "Faulty pairs surfaced by BIST.",
		func(p ProgramRecord) float64 { return float64(p.FaultsFound) }},
	{"nebula_obs_spares_consumed_total", "Remapped lines plus retired tiles.",
		func(p ProgramRecord) float64 { return float64(p.SparesConsumed) }},
	{"nebula_obs_degradation_events_total", "Cores that tripped the degradation policy.",
		func(p ProgramRecord) float64 { return float64(p.DegradationEvents) }},
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format. Series order is fixed (metric table order, then layout stage
// order), so equal snapshots produce identical bytes.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	var b bytes.Buffer
	b.WriteString("# HELP nebula_obs_info Compiled pipeline identity (value is always 1).\n")
	b.WriteString("# TYPE nebula_obs_info gauge\n")
	b.WriteString("nebula_obs_info{model=\"" + escapeLabel(s.Model) +
		"\",mode=\"" + escapeLabel(s.Mode) + "\"} 1\n")
	b.WriteString("# HELP nebula_obs_runs_total Completed runs merged into the recorder.\n")
	b.WriteString("# TYPE nebula_obs_runs_total counter\n")
	b.WriteString("nebula_obs_runs_total " + formatValue(float64(s.Runs)) + "\n")
	for _, m := range counterSeries {
		b.WriteString("# HELP " + m.name + " " + m.help + "\n")
		b.WriteString("# TYPE " + m.name + " counter\n")
		for i, st := range s.Stages {
			b.WriteString(m.name + stageLabels(i, st.StageInfo) + " " + formatValue(m.get(st.Counters)) + "\n")
		}
	}
	for _, m := range programSeries {
		b.WriteString("# HELP " + m.name + " " + m.help + "\n")
		b.WriteString("# TYPE " + m.name + " counter\n")
		b.WriteString(m.name + " " + formatValue(m.get(s.Program)) + "\n")
	}
	_, err := w.Write(b.Bytes())
	return err
}

// stageLabels renders the fixed label set of one stage bucket.
func stageLabels(i int, st StageInfo) string {
	return "{stage=\"" + strconv.Itoa(i) +
		"\",layer=\"" + escapeLabel(st.Name) +
		"\",kind=\"" + escapeLabel(st.Kind) +
		"\",domain=\"" + escapeLabel(st.Domain) +
		"\",core=\"" + strconv.Itoa(st.Core) + "\"}"
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// formatValue renders a sample value; integral counts up to 2^53 print
// exactly.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
