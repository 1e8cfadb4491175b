// Package obs is the hardware-counter observability layer: per-stage
// activity counters (spikes, MAC reads, ADC conversions, NoC hops, eDRAM
// accesses) collected by the session engine, merged deterministically
// across concurrent workers, and exported as JSON or Prometheus text
// plus a derived energy attribution on top of the Table III
// coefficients.
//
// The design is zero-cost when disabled: a session compiled without
// arch.WithObserver carries a nil recorder and the engine skips every
// accounting branch; there are no atomics anywhere on that path. With a
// recorder attached, each run accumulates into a private RunRecord shard
// (no cross-worker sharing), and the engine merges shards under the
// recorder lock in input order only — so counter totals are bitwise
// identical between sequential and batched execution at any parallelism,
// the same contract the engine gives for outputs. Float-valued counters
// (accumulated output current) make this ordering load-bearing.
package obs

import (
	"fmt"
	"sync"
)

// Counters is one stage's activity tally. All fields are event counts
// except OutputCurrentUA, which accumulates |I| over columns and
// evaluations (the analog quantity the energy model gates on).
type Counters struct {
	// SpikesEmitted counts output spikes (input-stage entries count
	// encoder spikes entering the pipeline).
	SpikesEmitted int64 `json:"spikes_emitted"`
	// MACReads counts atomic-crossbar evaluations.
	MACReads int64 `json:"mac_reads"`
	// ActiveRowSum accumulates driven rows per crossbar evaluation.
	ActiveRowSum int64 `json:"active_row_sum"`
	// ADCConversions counts spill-path partial-sum digitizations.
	ADCConversions int64 `json:"adc_conversions"`
	// NoCPackets / NoCHops count inter-stage transfers and the mesh hops
	// they traverse.
	NoCPackets int64 `json:"noc_packets"`
	NoCHops    int64 `json:"noc_hops"`
	// EDRAMAccesses counts eDRAM transactions (pipeline stages 1 and 3).
	EDRAMAccesses int64 `json:"edram_accesses"`
	// Cycles counts 110 ns pipeline cycles.
	Cycles int64 `json:"cycles"`
	// SilentStageSkips counts stage-timesteps the event-driven engine
	// skipped entirely because the input spike plane was all-zero.
	SilentStageSkips int64 `json:"silent_stage_skips"`
	// SpikesSkipped counts silent input slots the event-driven path did
	// not drive (plane length minus popcount, per stage-timestep).
	SpikesSkipped int64 `json:"spikes_skipped"`
	// PackedWords counts the packed spike-plane words processed.
	PackedWords int64 `json:"packed_words"`
	// RepeatReads counts crossbar reads served from the timestep-repeat
	// cache (identical spike plane, unchanged conductance generation).
	RepeatReads int64 `json:"repeat_reads"`
	// OutputCurrentUA accumulates column current magnitude in µA.
	OutputCurrentUA float64 `json:"output_current_ua"`
}

// Add folds another tally into c.
func (c *Counters) Add(o Counters) {
	c.SpikesEmitted += o.SpikesEmitted
	c.MACReads += o.MACReads
	c.ActiveRowSum += o.ActiveRowSum
	c.ADCConversions += o.ADCConversions
	c.NoCPackets += o.NoCPackets
	c.NoCHops += o.NoCHops
	c.EDRAMAccesses += o.EDRAMAccesses
	c.Cycles += o.Cycles
	c.SilentStageSkips += o.SilentStageSkips
	c.SpikesSkipped += o.SpikesSkipped
	c.PackedWords += o.PackedWords
	c.RepeatReads += o.RepeatReads
	c.OutputCurrentUA += o.OutputCurrentUA
}

// StageInfo identifies one counter bucket of a compiled pipeline.
type StageInfo struct {
	// Name is the converted layer's name ("input" for the encoder bucket).
	Name string `json:"name"`
	// Kind is the stage kind (encode, conv, dense, pool, flatten, output).
	Kind string `json:"kind"`
	// Domain is the execution domain: "input", "snn" or "ann".
	Domain string `json:"domain"`
	// Core is the neural-core ordinal for weighted stages, -1 otherwise.
	Core int `json:"core"`
	// Tiles is the number of super-tiles serving the stage (spill stages
	// span several), 0 for un-cored stages.
	Tiles int `json:"tiles"`
}

// Layout is the counter schema of one compiled session: the ordered
// stage buckets the engine attributes activity to. Sessions compiled
// from the same model in the same mode produce equal layouts, so one
// recorder may observe any number of them.
type Layout struct {
	Model  string      `json:"model"`
	Mode   string      `json:"mode"`
	Stages []StageInfo `json:"stages"`
}

// equal reports whether two layouts describe the same counter schema.
func (l *Layout) equal(o *Layout) bool {
	if l.Model != o.Model || l.Mode != o.Mode || len(l.Stages) != len(o.Stages) {
		return false
	}
	for i := range l.Stages {
		if l.Stages[i] != o.Stages[i] {
			return false
		}
	}
	return true
}

// RunRecord is one run's private counter shard. The engine allocates one
// per run (never shared between goroutines), fills it lock-free while
// the run executes, and hands it to Recorder.MergeRun on success — or
// drops it on the floor when the run fails, so a recorder only ever
// contains complete runs.
type RunRecord struct {
	layout *Layout
	stages []Counters
}

// NewRunRecord allocates a shard shaped for the layout.
func NewRunRecord(l *Layout) *RunRecord {
	return &RunRecord{layout: l, stages: make([]Counters, len(l.Stages))}
}

// Stage returns the counter bucket of stage i for in-place accumulation.
func (r *RunRecord) Stage(i int) *Counters { return &r.stages[i] }

// ProgramRecord tallies compile-time activity: crossbar programming
// energy plus the reliability pipeline's BIST / repair / sparing work.
type ProgramRecord struct {
	// Compiles counts sessions compiled against the recorder.
	Compiles int64 `json:"compiles"`
	// ProgramEnergyFJ is the total synapse programming energy.
	ProgramEnergyFJ float64 `json:"program_energy_fj"`
	// BISTReads / WriteRetries are the scan and repair cost counters.
	BISTReads    int64 `json:"bist_reads"`
	WriteRetries int64 `json:"write_retries"`
	// FaultsFound / Repaired / Compensated summarize BIST outcomes.
	FaultsFound int64 `json:"faults_found"`
	Repaired    int64 `json:"repaired"`
	Compensated int64 `json:"compensated"`
	// SparesConsumed counts remapped lines plus retired tiles.
	SparesConsumed int64 `json:"spares_consumed"`
	// DegradationEvents counts cores that tripped the degradation policy.
	DegradationEvents int64 `json:"degradation_events"`
}

// add folds another program record into p.
func (p *ProgramRecord) add(o ProgramRecord) {
	p.Compiles += o.Compiles
	p.ProgramEnergyFJ += o.ProgramEnergyFJ
	p.BISTReads += o.BISTReads
	p.WriteRetries += o.WriteRetries
	p.FaultsFound += o.FaultsFound
	p.Repaired += o.Repaired
	p.Compensated += o.Compensated
	p.SparesConsumed += o.SparesConsumed
	p.DegradationEvents += o.DegradationEvents
}

// Recorder accumulates counter shards from completed runs. One recorder
// may observe several sessions as long as they share a counter schema
// (same model, same mode); Bind enforces that at compile time. All
// methods are safe for concurrent use.
type Recorder struct {
	mu      sync.Mutex
	layout  *Layout
	totals  []Counters
	runs    int64
	program ProgramRecord
}

// NewRecorder builds an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Bind attaches the recorder to a compiled session's counter schema.
// The first Bind adopts the layout; subsequent Binds must present an
// equal schema, so totals from different sessions stay comparable.
func (r *Recorder) Bind(l *Layout) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.layout == nil {
		r.layout = l
		r.totals = make([]Counters, len(l.Stages))
		return nil
	}
	if !r.layout.equal(l) {
		return fmt.Errorf("obs: recorder already bound to %s/%s (%d stages); refusing schema %s/%s (%d stages)",
			r.layout.Model, r.layout.Mode, len(r.layout.Stages), l.Model, l.Mode, len(l.Stages))
	}
	return nil
}

// RecordProgram folds compile-time activity into the recorder.
func (r *Recorder) RecordProgram(p ProgramRecord) {
	r.mu.Lock()
	r.program.add(p)
	r.mu.Unlock()
}

// MergeRun folds one completed run's shard into the totals. Callers must
// serialize merge order themselves when order matters: the engine merges
// batch shards in input order after the whole batch succeeds, which is
// what makes batched totals bitwise equal to sequential ones.
func (r *Recorder) MergeRun(rr *RunRecord) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.layout == nil || !r.layout.equal(rr.layout) {
		return fmt.Errorf("obs: run shard layout does not match the bound recorder (Bind the layout first)")
	}
	r.runs++
	for i := range rr.stages {
		r.totals[i].Add(rr.stages[i])
	}
	return nil
}

// StageSnapshot pairs a stage's identity with its accumulated counters.
type StageSnapshot struct {
	StageInfo
	Counters
}

// Snapshot is a deterministic point-in-time copy of the recorder: equal
// recorder states marshal to identical bytes (no maps anywhere).
type Snapshot struct {
	Model   string          `json:"model"`
	Mode    string          `json:"mode"`
	Runs    int64           `json:"runs"`
	Program ProgramRecord   `json:"program"`
	Stages  []StageSnapshot `json:"stages"`
	Totals  Counters        `json:"totals"`
}

// Snapshot copies the recorder state. Totals are summed in stage order,
// so the float accumulation is reproducible.
func (r *Recorder) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{Runs: r.runs, Program: r.program}
	if r.layout == nil {
		return s
	}
	s.Model, s.Mode = r.layout.Model, r.layout.Mode
	s.Stages = make([]StageSnapshot, len(r.totals))
	for i := range r.totals {
		s.Stages[i] = StageSnapshot{StageInfo: r.layout.Stages[i], Counters: r.totals[i]}
		s.Totals.Add(r.totals[i])
	}
	return s
}
