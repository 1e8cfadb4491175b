package arch

import (
	"context"
	"fmt"

	"repro/internal/crossbar"
	"repro/internal/device"
	"repro/internal/mapping"
	"repro/internal/reliability"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// This file wires the reliability subsystem into the chip: fault
// injection and the BIST/repair pipeline at core-programming time, tile
// retirement, the degradation policy, and the chip-scale HealthScan
// behind `nebula-sim -health`.

// protect injects the configured fault profile into a freshly programmed
// super-tile and runs the protection pipeline over its configured slots.
// It merges the outcome into the chip health report and returns a
// *reliability.DegradedError when the residual fault density exceeds the
// policy threshold.
func (ch *Chip) protect(st *SuperTile) error {
	eng := reliability.NewEngine(ch.Rel, ch.split())
	for _, ac := range st.AllACs() {
		eng.Inject(ac)
	}
	if ch.Rel.Protection == reliability.ProtectNone && !ch.Rel.Faults.Any() {
		return nil
	}
	var unmit, pairs int
	if ch.Rel.Protection == reliability.ProtectNone {
		// Unprotected chips do not BIST; they compute through whatever
		// was injected. Only the injection counters reach the report.
		ch.health.Merge(eng.Report())
		return nil
	}
	for slot := 0; slot < st.Slots(); slot++ {
		u := eng.ProtectArray(st.SlotCrossbar(slot))
		if ch.Rel.Protection >= reliability.ProtectSpareRemap && u > ch.Rel.Policy.RetireThreshold {
			if st.Retire(slot) {
				eng.NoteRetired()
				// The replacement array carries its own injected faults;
				// protect it in turn.
				u = eng.ProtectArray(st.SlotCrossbar(slot))
			}
		}
		unmit += u
		pairs += mapping.M * mapping.M
	}
	rpt := eng.Report()
	rpt.Unmitigated = int64(unmit)
	if pairs > 0 && float64(unmit)/float64(pairs) > ch.Rel.Policy.MaxUnmitigatedFrac {
		rpt.Degraded = true
		ch.health.Merge(rpt)
		return &reliability.DegradedError{
			Reason: fmt.Sprintf("core unmitigated fault fraction %.4f exceeds policy %.4f",
				float64(unmit)/float64(pairs), ch.Rel.Policy.MaxUnmitigatedFrac),
			Report: ch.health,
		}
	}
	ch.health.Merge(rpt)
	return nil
}

// Health returns the chip's cumulative reliability report: every core
// prepared since creation (or the last ResetHealth). Totals are
// deterministic for a fixed chip seed.
func (ch *Chip) Health() reliability.Report { return ch.health }

// ResetHealth clears the cumulative reliability report.
func (ch *Chip) ResetHealth() { ch.health = reliability.Report{} }

// HealthScan is the chip-scale BIST pass behind `nebula-sim -health`: it
// provisions the neural cores of a mapped workload, programs each with
// synthetic weights (the analytic workloads carry no trained values),
// injects the fault profile and runs the protection pipeline, returning
// the aggregate health report. Per-core degradation does not abort the
// scan — a refused core marks the report Degraded and the scan moves on,
// which is exactly what a commissioning pass wants to know. Cancelling
// ctx aborts between cores; the partial report covers the cores scanned
// so far.
func HealthScan(ctx context.Context, np mapping.NetworkPlacement, p device.Params, cfg crossbar.Config, rel *reliability.Config, seed uint64) (reliability.Report, error) {
	ch := NewChip(p, cfg, rng.New(seed))
	ch.Rel = rel
	wstream := ch.split()
	for _, pl := range np.Placements {
		if pl.ACsUsed == 0 {
			continue
		}
		if err := ctx.Err(); err != nil {
			return ch.Health(), fmt.Errorf("arch: health scan %s: %w", pl.Layer.Name, err)
		}
		// Per-NC geometry: clamp the placement's stack/sets to one
		// super-tile, mirroring how the mapper chunks oversized layers.
		sets := pl.Sets
		if sets > mapping.ACsPerNC {
			sets = mapping.ACsPerNC
		}
		stack := mapping.ACsPerNC / sets
		if pl.StackHeight < stack {
			stack = pl.StackHeight
		}
		if stack < 1 {
			stack = 1
		}
		rows, cols := stack*mapping.M, sets*mapping.M
		for nc := 0; nc < pl.NCsUsed; nc++ {
			if err := ctx.Err(); err != nil {
				return ch.Health(), fmt.Errorf("arch: health scan %s: %w", pl.Layer.Name, err)
			}
			st := NewSuperTile(p, ch.coreCfg(), ch.split())
			w := tensor.New(rows, cols)
			wd := w.Data()
			for i := range wd {
				wd[i] = wstream.Float64()*2 - 1
			}
			if err := st.Program(w, 1.0); err != nil {
				return ch.Health(), fmt.Errorf("arch: health scan %s: %w", pl.Layer.Name, err)
			}
			if err := ch.prepare(st); err != nil {
				var de *reliability.DegradedError
				if !asDegraded(err, &de) {
					return ch.Health(), err
				}
			}
		}
	}
	return ch.Health(), nil
}

// asDegraded unwraps err into a *reliability.DegradedError, a minimal
// errors.As for the one error type the reliability layer returns.
func asDegraded(err error, out **reliability.DegradedError) bool {
	de, ok := err.(*reliability.DegradedError)
	if ok {
		*out = de
	}
	return ok
}
