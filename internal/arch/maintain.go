package arch

import (
	"context"
	"fmt"

	"repro/internal/crossbar"
	"repro/internal/reliability"
	"repro/internal/rng"
)

// This file is the online-maintenance surface of a compiled session: the
// generation-stamp pristineness check that proves the programmed arrays
// have not mutated since compile (or since the last scrub), retention
// ageing and fault onset hooks for chaos injection, and Scrub — the
// in-service refresh + re-BIST pass that session pools run between
// batches. Runs never mutate the arrays; these three hooks and
// compile-time injection are the only events that do. Compile-time
// protection (BIST, sparing, retirement) defends a chip once; this layer
// is what keeps a long-running replica honest.

// forEachSuperTile visits every super-tile the compiled pipeline routes
// reads through, in the fixed pipeline order (spiking cores and their
// spill blocks, then continuous cores). The order is deterministic,
// which makes every maintenance pass over it reproducible.
func (s *Session) forEachSuperTile(f func(st *SuperTile)) {
	for _, hw := range s.stages {
		if hw.core != nil {
			f(hw.core.ST)
		}
		if hw.spill != nil {
			for _, st := range hw.spill.blocks {
				f(st)
			}
		}
	}
}

// stampGenerations snapshots the generation counter of every slot-routed
// crossbar. The stamp is taken when the arrays are known-good — at the
// end of Compile and after a successful Scrub — and Pristine compares
// against it.
func (s *Session) stampGenerations() {
	stamp := s.genStamp[:0]
	s.forEachSuperTile(func(st *SuperTile) {
		for slot := 0; slot < st.Slots(); slot++ {
			stamp = append(stamp, st.SlotCrossbar(slot).Generation())
		}
	})
	s.genStamp = stamp
}

// Pristine reports whether every slot-routed array still carries the
// generation stamp recorded when the session was last known good. Any
// mutation since — retention ticking, fault onset, a stray write — turns
// it false, and a router must treat the session's results as suspect
// until a Scrub restores and re-stamps it. Pristine is read-only and
// safe to call concurrently with frozen-path runs; it must not race a
// mutator (callers serialize it against Scrub and the chaos hooks).
func (s *Session) Pristine() bool {
	i := 0
	ok := true
	s.forEachSuperTile(func(st *SuperTile) {
		for slot := 0; slot < st.Slots(); slot++ {
			if i >= len(s.genStamp) || st.SlotCrossbar(slot).Generation() != s.genStamp[i] {
				ok = false
			}
			i++
		}
	})
	return ok && i == len(s.genStamp)
}

// AgeRetention advances the retention clock of every array by the given
// number of timesteps without running anything — the drift a replica
// accumulates while idle, or a chaos harness's drift burst. Ageing
// invalidates the generation stamps, so the session stops being Pristine
// until the next Scrub. Callers must ensure no run is in flight.
func (s *Session) AgeRetention(steps int64) {
	if steps <= 0 {
		return
	}
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	s.forEachSuperTile(func(st *SuperTile) {
		st.Tick(steps)
		if age := st.MaxAge(); age > s.chip.health.MaxDriftAge {
			s.chip.health.MaxDriftAge = age
		}
	})
}

// InjectStuckFaults strikes every array of the compiled session with
// fresh permanently stuck devices at the given per-device fraction — the
// in-service fault onset DW-MTJ devices exhibit under operation, and the
// stuck-onset storm of the chaos harness. The injection is deterministic
// for a fixed seed. It returns the number of devices stuck. Callers must
// ensure no run is in flight.
func (s *Session) InjectStuckFaults(seed uint64, fraction float64, mode crossbar.FaultMode) int {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	r := rng.New(seed)
	n := 0
	s.forEachSuperTile(func(st *SuperTile) {
		n += st.InjectStuckFaults(r.Split(), fraction, mode)
	})
	s.chip.health.DevicesFaulted += int64(n)
	return n
}

// Scrub is the online maintenance pass: every array is refreshed
// (pairs rewritten to their programmed targets, undoing retention drift)
// and then re-BIST scanned, the frozen read kernels are rebaked, and the
// generation stamps are renewed. The returned report covers this pass
// only — ArraysScanned/PairsScanned/ScanReads for the scan, FaultsFound
// and Unmitigated for the residual faulty pairs that survived the
// rewrite (permanently stuck or weak devices), Refreshes for the scrub
// work — so a router can feed it straight into Report.Healthy.
//
// When the chip carries a reliability config and the residual fault
// fraction exceeds its policy threshold, Scrub returns a
// *reliability.DegradedError (with the pass report attached): the
// hardware is past saving and the session must not serve. Cancellation
// is honoured between super-tiles.
//
// Scrub mutates the programmed arrays and must not run concurrently
// with any Run/RunBatch on the same session; pools hold the replica's
// exclusive lock across it.
func (s *Session) Scrub(ctx context.Context) (reliability.Report, error) {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()

	var rpt reliability.Report
	var ctxErr error
	s.forEachSuperTile(func(st *SuperTile) {
		if ctxErr != nil {
			return
		}
		if err := ctx.Err(); err != nil {
			ctxErr = err
			return
		}
		if age := st.MaxAge(); age > rpt.MaxDriftAge {
			rpt.MaxDriftAge = age
		}
		st.Refresh()
		rpt.Refreshes++
		for slot := 0; slot < st.Slots(); slot++ {
			m := st.SlotCrossbar(slot).Verify()
			rpt.ArraysScanned++
			rpt.PairsScanned += int64(m.Rows * m.Cols)
			rpt.ScanReads += m.ScanReads
			residual := int64(m.Count())
			rpt.FaultsFound += residual
			rpt.Unmitigated += residual
		}
	})
	if ctxErr != nil {
		return rpt, ctxErr
	}

	// The arrays are back at their programmed targets (minus whatever is
	// permanently stuck); freeze them again and renew the stamps so the
	// session is Pristine for the next run.
	s.bakeKernels()
	s.stampGenerations()

	if s.chip.Rel != nil && rpt.PairsScanned > 0 &&
		rpt.UnmitigatedFrac() > s.chip.Rel.Policy.MaxUnmitigatedFrac {
		rpt.Degraded = true
		s.mergeScrubHealth(rpt)
		return rpt, &reliability.DegradedError{
			Reason: fmt.Sprintf("online scrub: unmitigated fault fraction %.4f exceeds policy %.4f",
				rpt.UnmitigatedFrac(), s.chip.Rel.Policy.MaxUnmitigatedFrac),
			Report: rpt,
		}
	}
	s.mergeScrubHealth(rpt)
	return rpt, nil
}

// mergeScrubHealth folds one scrub pass into the chip's cumulative
// health report. Unmitigated is deliberately left out of the cumulative
// merge: it is a level (the residual at this scrub), not a counter, and
// re-adding it every pass would inflate the commissioning-time residual
// the cumulative report records.
func (s *Session) mergeScrubHealth(rpt reliability.Report) {
	cum := rpt
	cum.Unmitigated = 0
	s.chip.health.Merge(cum)
}
