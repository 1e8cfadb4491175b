// Package reliability is the chip-level fault detection and mitigation
// subsystem: it decides which faults to inject (the fault profile), how
// hard to fight them (the protection level and policy), and when to give
// up (the degradation policy).
//
// The paper's abstract claims NEBULA is "as efficient and fault-tolerant
// as the brain"; this package turns that from an assertion into a
// testable pipeline. After every super-tile is programmed, a BIST
// read-verify scan (Crossbar.Verify) diffs read-back differential levels
// against the programmed targets. Depending on the protection level the
// engine then runs a write-verify retry loop for weak devices (the
// dominant, repairable DW-MTJ failure mode — cf. Cui et al.,
// arXiv:2405.14851), differential-pair compensation and fault-aware
// zeroing for permanently stuck devices, spare-line remapping for dead
// rows/columns, and finally tile retirement for arrays that remain too
// faulty. Whatever survives all of that is counted as unmitigated; when
// the unmitigated fraction of a core exceeds the policy threshold, the
// chip refuses to compute garbage and returns a DegradedError carrying
// the health report.
//
// Mechanisms (what a write, remap or scan physically does) live in
// package crossbar; this package owns only policy, which keeps the
// dependency direction device → crossbar → reliability → arch.
package reliability

import (
	"fmt"
	"io"

	"repro/internal/crossbar"
)

// Protection selects how much of the mitigation pipeline runs.
type Protection int

const (
	// ProtectNone injects faults but never scans or repairs — the
	// unprotected baseline curve.
	ProtectNone Protection = iota
	// ProtectWriteVerify adds the BIST scan and the write-verify retry
	// loop for weak devices. Permanent faults and dead lines remain.
	ProtectWriteVerify
	// ProtectSpareRemap adds differential-pair compensation for stuck
	// devices, spare row/column remapping for dead lines, and tile
	// retirement on top of write-verify.
	ProtectSpareRemap
)

// String implements fmt.Stringer.
func (p Protection) String() string {
	switch p {
	case ProtectNone:
		return "none"
	case ProtectWriteVerify:
		return "write-verify"
	case ProtectSpareRemap:
		return "sparing+remap"
	}
	return fmt.Sprintf("protection(%d)", int(p))
}

// ParseProtection maps a CLI flag value to a protection level.
func ParseProtection(s string) (Protection, error) {
	switch s {
	case "none":
		return ProtectNone, nil
	case "verify", "write-verify":
		return ProtectWriteVerify, nil
	case "spare", "sparing+remap", "remap":
		return ProtectSpareRemap, nil
	}
	return ProtectNone, fmt.Errorf("reliability: unknown protection %q (want none|verify|spare)", s)
}

// FaultProfile describes the fault population injected into every
// physical crossbar — spare lines and spare tiles included, so
// redundancy is as fallible as what it replaces.
type FaultProfile struct {
	// DeviceRate is the per-device probability of an injected fault.
	DeviceRate float64
	// PermanentFrac is the fraction of device faults that are permanently
	// stuck (mode below); the rest are weak devices whose writes land at
	// an arbitrary wrong level until a verify retry pins them.
	PermanentFrac float64
	// Mode is the stuck polarity of permanent faults.
	Mode crossbar.FaultMode
	// RowDeadRate / ColDeadRate are per-line probabilities of a dead
	// driver or sense amplifier.
	RowDeadRate, ColDeadRate float64
	// DriftTauSteps is forwarded to crossbar.Config: the retention time
	// constant in timesteps (0 disables drift).
	DriftTauSteps float64
}

// Any reports whether the profile injects anything at all.
func (f FaultProfile) Any() bool {
	return f.DeviceRate > 0 || f.RowDeadRate > 0 || f.ColDeadRate > 0
}

// Policy bounds the cost of mitigation and sets the give-up thresholds.
type Policy struct {
	// MaxWriteRetries caps write-verify attempts per faulty pair.
	MaxWriteRetries int
	// RetrySuccessProb is the per-attempt probability that a weak device's
	// wall finally pins (clearing the weakness).
	RetrySuccessProb float64
	// SpareRows / SpareCols provision redundant lines per atomic crossbar
	// (forwarded to crossbar.Config under ProtectSpareRemap).
	SpareRows, SpareCols int
	// RetireThreshold retires an atomic crossbar whose unmitigated pair
	// count stays above this after repair; its weight slice is re-placed
	// onto a spare array of the same super-tile.
	RetireThreshold int
	// MaxUnmitigatedFrac is the degradation threshold: if, after all
	// mitigation, more than this fraction of a core's pairs remain
	// faulty, the run returns a DegradedError instead of computing.
	MaxUnmitigatedFrac float64
}

// DefaultPolicy returns the policy used by the paper-reproduction
// studies: three verify retries at 70% per-attempt success, 4+4 spare
// lines per AC, retirement above 192 bad pairs (~1.2% of an AC, about
// what two unmapped dead lines cost), and a 2% degradation threshold.
func DefaultPolicy() Policy {
	return Policy{
		MaxWriteRetries:    3,
		RetrySuccessProb:   0.7,
		SpareRows:          4,
		SpareCols:          4,
		RetireThreshold:    192,
		MaxUnmitigatedFrac: 0.02,
	}
}

// Config is the complete reliability configuration attached to a chip.
type Config struct {
	Faults     FaultProfile
	Protection Protection
	Policy     Policy
}

// StudyConfig derives the standard fault-study configuration from a
// single device fault rate: line faults at 1/20th the device rate and a
// 20% permanent fraction, under the default policy. This is the knob the
// three-curve FaultResilience experiment sweeps.
func StudyConfig(rate float64, prot Protection) *Config {
	return &Config{
		Faults: FaultProfile{
			DeviceRate:    rate,
			PermanentFrac: 0.2,
			Mode:          crossbar.StuckAP,
			RowDeadRate:   rate / 20,
			ColDeadRate:   rate / 20,
		},
		Protection: prot,
		Policy:     DefaultPolicy(),
	}
}

// Report is the chip health snapshot: cumulative counters over every
// core prepared and protected since the chip was created. All totals are
// deterministic for a fixed chip seed.
type Report struct {
	// ArraysScanned counts BIST-scanned atomic crossbars; PairsScanned
	// counts the differential pairs covered.
	ArraysScanned, PairsScanned int64
	// DevicesFaulted / RowsDead / ColsDead count injected faults.
	DevicesFaulted, RowsDead, ColsDead int64
	// FaultsFound counts faulty pairs surfaced by the first BIST scan
	// (dead lines counted as whole lines of pairs).
	FaultsFound int64
	// Repaired counts pairs fixed by the write-verify retry loop;
	// Compensated counts pairs absorbed by reprogramming the healthy
	// sibling device (including fault-aware zeroing).
	Repaired, Compensated int64
	// RowsRemapped / ColsRemapped count dead lines routed to spares;
	// TilesRetired counts atomic crossbars replaced by spare arrays.
	RowsRemapped, ColsRemapped, TilesRetired int64
	// Unmitigated counts pairs still faulty after all mitigation.
	Unmitigated int64
	// ScanReads / RepairWrites are the BIST and repair cost counters.
	ScanReads, RepairWrites int64
	// Refreshes counts scrub passes; MaxDriftAge is the oldest retention
	// age (in timesteps) any array reached since programming.
	Refreshes   int64
	MaxDriftAge int64
	// Degraded records whether any core tripped the degradation policy.
	Degraded bool
}

// Merge folds another report's counters into r.
func (r *Report) Merge(o Report) {
	r.ArraysScanned += o.ArraysScanned
	r.PairsScanned += o.PairsScanned
	r.DevicesFaulted += o.DevicesFaulted
	r.RowsDead += o.RowsDead
	r.ColsDead += o.ColsDead
	r.FaultsFound += o.FaultsFound
	r.Repaired += o.Repaired
	r.Compensated += o.Compensated
	r.RowsRemapped += o.RowsRemapped
	r.ColsRemapped += o.ColsRemapped
	r.TilesRetired += o.TilesRetired
	r.Unmitigated += o.Unmitigated
	r.ScanReads += o.ScanReads
	r.RepairWrites += o.RepairWrites
	r.Refreshes += o.Refreshes
	if o.MaxDriftAge > r.MaxDriftAge {
		r.MaxDriftAge = o.MaxDriftAge
	}
	r.Degraded = r.Degraded || o.Degraded
}

// Delta returns the counter-wise difference r − prev, attributing the
// work of one window (e.g. a single session compilation) out of a
// cumulative report. MaxDriftAge is copied from r (it is a level, not a
// counter); Degraded reports whether the chip became degraded inside
// the window.
func (r Report) Delta(prev Report) Report {
	return Report{
		ArraysScanned:  r.ArraysScanned - prev.ArraysScanned,
		PairsScanned:   r.PairsScanned - prev.PairsScanned,
		DevicesFaulted: r.DevicesFaulted - prev.DevicesFaulted,
		RowsDead:       r.RowsDead - prev.RowsDead,
		ColsDead:       r.ColsDead - prev.ColsDead,
		FaultsFound:    r.FaultsFound - prev.FaultsFound,
		Repaired:       r.Repaired - prev.Repaired,
		Compensated:    r.Compensated - prev.Compensated,
		RowsRemapped:   r.RowsRemapped - prev.RowsRemapped,
		ColsRemapped:   r.ColsRemapped - prev.ColsRemapped,
		TilesRetired:   r.TilesRetired - prev.TilesRetired,
		Unmitigated:    r.Unmitigated - prev.Unmitigated,
		ScanReads:      r.ScanReads - prev.ScanReads,
		RepairWrites:   r.RepairWrites - prev.RepairWrites,
		Refreshes:      r.Refreshes - prev.Refreshes,
		MaxDriftAge:    r.MaxDriftAge,
		Degraded:       r.Degraded && !prev.Degraded,
	}
}

// UnmitigatedFrac returns the fraction of scanned pairs left faulty. A
// report with nothing scanned is defined as fully mitigated (0, never
// NaN), so an empty scan reads as healthy rather than poisoning every
// downstream threshold comparison.
func (r Report) UnmitigatedFrac() float64 {
	if r.PairsScanned == 0 {
		return 0
	}
	return float64(r.Unmitigated) / float64(r.PairsScanned)
}

// Healthy reports whether the scanned hardware is fit to serve: nothing
// tripped the degradation policy and the residual fault fraction is
// within maxUnmitigatedFrac. Routers steering work across session
// replicas call this with their own (typically stricter) threshold — a
// fleet that can retire and recompile replicas has no reason to keep
// serving through residual faults a lone chip would have to tolerate.
func (r Report) Healthy(maxUnmitigatedFrac float64) bool {
	return !r.Degraded && r.UnmitigatedFrac() <= maxUnmitigatedFrac
}

// Render writes the health report as the nebula-sim -health block.
func (r Report) Render(w io.Writer) {
	fmt.Fprintf(w, "chip health: %d pairs scanned across %d arrays\n", r.PairsScanned, r.ArraysScanned)
	fmt.Fprintf(w, "  injected   %d faulty devices, %d dead rows, %d dead cols\n",
		r.DevicesFaulted, r.RowsDead, r.ColsDead)
	fmt.Fprintf(w, "  BIST       %d faulty pairs found (%d scan reads)\n", r.FaultsFound, r.ScanReads)
	fmt.Fprintf(w, "  repaired   %d write-verify, %d compensated (%d repair writes)\n",
		r.Repaired, r.Compensated, r.RepairWrites)
	fmt.Fprintf(w, "  remapped   %d rows, %d cols; %d tiles retired\n",
		r.RowsRemapped, r.ColsRemapped, r.TilesRetired)
	status := "OK"
	if r.Degraded {
		status = "DEGRADED"
	}
	fmt.Fprintf(w, "  residual   %d unmitigated pairs (%.3f%%) → %s\n",
		r.Unmitigated, r.UnmitigatedFrac()*100, status)
	if r.Refreshes > 0 || r.MaxDriftAge > 0 {
		fmt.Fprintf(w, "  retention  max drift age %d steps, %d scrub refreshes\n",
			r.MaxDriftAge, r.Refreshes)
	}
}

// DegradedError is returned by chip runs when mitigation is exhausted:
// the residual fault density exceeds the policy threshold, so the chip
// declines to return silently corrupted results. It carries the health
// report so callers can decide what to retire or re-place.
type DegradedError struct {
	// Reason names the tripped policy check.
	Reason string
	// Report is the chip health snapshot at the moment of refusal.
	Report Report
}

// Error implements the error interface.
func (e *DegradedError) Error() string {
	return fmt.Sprintf("reliability: chip degraded: %s (%d/%d pairs unmitigated)",
		e.Reason, e.Report.Unmitigated, e.Report.PairsScanned)
}
