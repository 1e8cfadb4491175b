package arch

import (
	"repro/internal/obs"
	"repro/internal/reliability"
)

// This file wires the observability layer into the session lifecycle:
// the counter schema (obs.Layout) is derived from the compiled pipeline,
// the recorder is bound to it, and the compilation's programming energy
// plus reliability work are folded into the recorder's program record.
// The run-time half — per-stage shard accounting — lives in engine.go.

// attachObserver binds the recorder to this session's counter schema and
// records the compile-time activity.
func (s *Session) attachObserver(rec *obs.Recorder, healthBefore reliability.Report) error {
	s.buildObsLayout()
	if err := rec.Bind(s.obsLayout); err != nil {
		return err
	}
	s.rec = rec
	rec.RecordProgram(s.compileRecord(healthBefore))
	return nil
}

// buildObsLayout derives the counter schema of the compiled pipeline:
// an input bucket for the encoder in spiking modes, then one bucket per
// stage, in the domain it runs in. Weighted stages carry a neural-core
// ordinal and their super-tile count.
func (s *Session) buildObsLayout() {
	l := &obs.Layout{Model: s.model.SNN.Name(), Mode: s.cfg.Mode.String()}
	if s.cfg.Mode != ModeANN {
		l.Stages = append(l.Stages, obs.StageInfo{Name: "input", Kind: "encode", Domain: "input", Core: -1})
	}
	s.obsBase = len(l.Stages)
	core := 0
	for i, hw := range s.stages {
		si := obs.StageInfo{Name: hw.name, Kind: hw.kind, Domain: "snn", Core: -1}
		if i >= s.cut {
			si.Domain = "ann"
		}
		if hw.core != nil {
			si.Core, si.Tiles = core, len(hw.core.blocks)
			core++
		}
		l.Stages = append(l.Stages, si)
	}
	s.obsLayout = l
}

// compileRecord summarizes this compilation: the synapse programming
// energy of every core built for the session plus the reliability
// pipeline's work since healthBefore.
func (s *Session) compileRecord(healthBefore reliability.Report) obs.ProgramRecord {
	p := reliabilityRecord(s.chip.health.Delta(healthBefore))
	p.Compiles = 1
	s.forEachSuperTile(func(st *SuperTile) {
		p.ProgramEnergyFJ += st.Stats().ProgramEnergyFJ
	})
	return p
}

// failedCompileRecord summarizes a compile that was refused after doing
// reliability work; the degradation refusal itself is counted.
func failedCompileRecord(delta reliability.Report, err error) obs.ProgramRecord {
	p := reliabilityRecord(delta)
	var de *reliability.DegradedError
	if asDegraded(err, &de) || delta.Degraded {
		p.DegradationEvents = 1
	}
	return p
}

// reliabilityRecord maps a reliability report delta onto the program
// counters.
func reliabilityRecord(d reliability.Report) obs.ProgramRecord {
	p := obs.ProgramRecord{
		BISTReads:      d.ScanReads,
		WriteRetries:   d.RepairWrites,
		FaultsFound:    d.FaultsFound,
		Repaired:       d.Repaired,
		Compensated:    d.Compensated,
		SparesConsumed: d.RowsRemapped + d.ColsRemapped + d.TilesRetired,
	}
	if d.Degraded {
		p.DegradationEvents = 1
	}
	return p
}
