package crossbar

import (
	"errors"
	"math"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/device"
	"repro/internal/lint"
	"repro/internal/rng"
	"repro/internal/spikeplane"
)

// kernelCfg is the stress configuration for the differential tests:
// every analog effect the read path models is switched on, so a kernel
// that mishandles any of them diverges from the dense reference.
func kernelCfg() Config {
	return Config{
		IRDropAlpha:            0.3,
		ReadNoiseSigma:         0.02,
		ProgramVariationLevels: 0.7,
		SpareRows:              4,
		SpareCols:              4,
		DriftTauSteps:          5000,
	}
}

// newTwin builds two identically seeded, identically programmed
// crossbars. The reference twin never bakes a kernel; the subject twin
// is the one under test. Any op applied to both afterwards keeps their
// construction RNG streams in lockstep.
func newTwin(seed uint64, rows, cols int, cfg Config) (ref, sub *Crossbar) {
	p := device.DefaultParams()
	ref = New(rows, cols, p, cfg, rng.New(seed))
	sub = New(rows, cols, p, cfg, rng.New(seed))
	w := randWeights(rng.New(seed+1), rows, cols, 1.0)
	if err := ref.Program(w, 1.0); err != nil {
		panic(err)
	}
	if err := sub.Program(w.Clone(), 1.0); err != nil {
		panic(err)
	}
	return ref, sub
}

// sparseInput fills an input vector at the given active fraction and
// returns it with its increasing active-index list.
func sparseInput(r *rng.Rand, rows int, activeFrac float64) ([]float64, []int) {
	in := make([]float64, rows)
	var act []int
	for i := range in {
		if r.Float64() < activeFrac {
			in[i] = r.Float64() + 0.1
			act = append(act, i)
		}
	}
	return in, act
}

// assertBitwise compares two read results bit for bit; an exact-zero
// tolerance is the kernel's contract, so even a ±0.0 sign flip fails.
func assertBitwise(t *testing.T, tag string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d, want %d", tag, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: col %d: kernel %v (bits %#x) != dense %v (bits %#x)",
				tag, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// readInto is one MACReadInto into a fresh full-width buffer, with a
// noise stream seeded by noiseSeed.
func readInto(t *testing.T, c *Crossbar, in []float64, act []int, noiseSeed uint64, stats *Stats) []float64 {
	t.Helper()
	out := make([]float64, c.Cols)
	if err := c.MACReadInto(out, in, act, rng.New(noiseSeed), stats); err != nil {
		t.Fatal(err)
	}
	return out
}

// readPair drives one identical read through both twins — the reference
// on the dense path, the subject on whatever path its kernel state
// selects — with identically seeded noise streams, and returns both
// results plus the subject's explicit-active-list result.
func readPair(t *testing.T, ref, sub *Crossbar, in []float64, act []int, noiseSeed uint64) (want, got, gotAct []float64) {
	t.Helper()
	return readInto(t, ref, in, nil, noiseSeed, nil), readInto(t, sub, in, nil, noiseSeed, nil),
		readInto(t, sub, in, act, noiseSeed, nil)
}

// TestMACReadKernelBitwise is the core differential test: across random
// geometries, sparsities, fault loads, drift ages and noise, the baked
// kernel must reproduce the dense read bit for bit — both when scanning
// the input and when driven by an explicit spike list.
func TestMACReadKernelBitwise(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{}},
		{"irdrop", Config{IRDropAlpha: 0.25}},
		{"noise", Config{ReadNoiseSigma: 0.05}},
		{"drift", Config{DriftTauSteps: 800}},
		{"variation", Config{ProgramVariationLevels: 1.2}},
		{"everything", kernelCfg()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := rng.New(0xC0FFEE)
			for trial := 0; trial < 12; trial++ {
				rows := 1 + r.Intn(160)
				cols := 1 + r.Intn(96)
				seed := r.Uint64()
				ref, sub := newTwin(seed, rows, cols, tc.cfg)

				// A sprinkling of faults, kills and remaps on both twins.
				if trial%2 == 0 {
					ref.InjectStuckFaults(rng.New(seed+2), 0.03, StuckAP)
					sub.InjectStuckFaults(rng.New(seed+2), 0.03, StuckAP)
				}
				if trial%3 == 0 {
					row, col := r.Intn(rows), r.Intn(cols)
					ref.KillRow(row)
					sub.KillRow(row)
					ref.KillCol(col)
					sub.KillCol(col)
					if tc.cfg.SpareRows > 0 {
						ref.RemapRow(row)
						sub.RemapRow(row)
					}
				}
				if tc.cfg.DriftTauSteps > 0 {
					age := int64(r.Intn(2000))
					ref.Tick(age)
					sub.Tick(age)
				}
				sub.BakeKernel()
				if !sub.KernelFresh() {
					t.Fatal("kernel stale immediately after bake")
				}

				for _, frac := range []float64{0, 0.1, 0.5, 0.9, 1} {
					in, act := sparseInput(r, rows, frac)
					noiseSeed := r.Uint64()
					want, got, gotAct := readPair(t, ref, sub, in, act, noiseSeed)
					assertBitwise(t, tc.name+"/scan", want, got)
					assertBitwise(t, tc.name+"/active", want, gotAct)
				}
			}
		})
	}
}

// TestMACReadKernelStats checks the fast path reports the same MAC
// accounting — active-row count and output current — as the dense walk.
func TestMACReadKernelStats(t *testing.T) {
	ref, sub := newTwin(7, 64, 48, kernelCfg())
	sub.BakeKernel()
	r := rng.New(11)
	in, act := sparseInput(r, 64, 0.3)
	var sRef, sSub Stats
	out := make([]float64, 48)
	if err := ref.MACReadInto(out, in, nil, rng.New(3), &sRef); err != nil {
		t.Fatal(err)
	}
	if err := sub.MACReadInto(out, in, act, rng.New(3), &sSub); err != nil {
		t.Fatal(err)
	}
	if sRef.MACs != sSub.MACs || sRef.ActiveRowSum != sSub.ActiveRowSum ||
		math.Float64bits(sRef.OutputCurrentUA) != math.Float64bits(sSub.OutputCurrentUA) {
		t.Fatalf("stats diverged: dense %+v, kernel %+v", sRef, sSub)
	}
}

// TestMACReadIntoChecksLengths covers the fast path's error returns.
func TestMACReadIntoChecksLengths(t *testing.T) {
	_, sub := newTwin(5, 8, 6, Config{})
	sub.BakeKernel()
	if err := sub.MACReadInto(make([]float64, 5), make([]float64, 8), nil, nil, nil); err == nil {
		t.Fatal("wrong destination length accepted")
	}
	if err := sub.MACReadInto(make([]float64, 6), make([]float64, 7), nil, nil, nil); err == nil {
		t.Fatal("wrong input length accepted")
	}
}

// freshnessTable is the runtime half of the kernel-invalidation gate:
// one entry per exported mutator of read-visible state, each applied to
// a freshly baked crossbar to prove it marks the kernel stale. The
// genstamp static analyzer discovers the same mutator set from the code
// itself; TestFreshnessTableMatchesGenstamp cross-checks the two so a
// new mutator cannot land without a table entry.
var freshnessTable = []struct {
	name   string
	mutate func(t *testing.T, c *Crossbar)
}{
	{"Program", func(t *testing.T, c *Crossbar) {
		if err := c.Program(randWeights(rng.New(9), c.Rows, c.Cols, 1), 1); err != nil {
			t.Fatal(err)
		}
	}},
	{"InjectStuckFaults", func(t *testing.T, c *Crossbar) { c.InjectStuckFaults(rng.New(4), 0.1, StuckAP) }},
	{"SetStuck", func(t *testing.T, c *Crossbar) { c.SetStuck(1, 1, true, StuckP) }},
	{"SetWeak", func(t *testing.T, c *Crossbar) { c.SetWeak(2, 2, false, 1) }},
	{"ClearWeak", func(t *testing.T, c *Crossbar) {
		c.SetWeak(2, 2, false, 1)
		c.BakeKernel()
		if !c.ClearWeak(2, 2, false) {
			t.Fatal("ClearWeak found nothing to clear")
		}
	}},
	{"KillRow", func(t *testing.T, c *Crossbar) { c.KillRow(3) }},
	{"KillCol", func(t *testing.T, c *Crossbar) { c.KillCol(3) }},
	{"RemapRow", func(t *testing.T, c *Crossbar) {
		if !c.RemapRow(0) {
			t.Fatal("no spare row")
		}
	}},
	{"RemapCol", func(t *testing.T, c *Crossbar) {
		if !c.RemapCol(0) {
			t.Fatal("no spare col")
		}
	}},
	{"WritePair", func(t *testing.T, c *Crossbar) { c.WritePair(0, 0) }},
	{"CompensatePair", func(t *testing.T, c *Crossbar) {
		c.SetStuck(0, 0, true, StuckP)
		c.BakeKernel()
		c.CompensatePair(0, 0)
	}},
	{"Tick", func(t *testing.T, c *Crossbar) { c.Tick(1) }},
	{"Refresh", func(t *testing.T, c *Crossbar) { c.Refresh() }},
	{"ImportState", func(t *testing.T, c *Crossbar) {
		if err := c.ImportState(c.ExportState()); err != nil {
			t.Fatal(err)
		}
	}},
	{"ImportStateBlob", func(t *testing.T, c *Crossbar) {
		blob, err := c.ExportState().GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		if err := c.ImportStateBlob(blob); err != nil {
			t.Fatal(err)
		}
	}},
}

// TestKernelFreshAfterMutators pins the invalidation contract: every
// mutator of read-visible state must mark the kernel stale, and a rebake
// must restore the fast path.
func TestKernelFreshAfterMutators(t *testing.T) {
	for _, tc := range freshnessTable {
		t.Run(tc.name, func(t *testing.T) {
			_, sub := newTwin(21, 16, 12, kernelCfg())
			sub.BakeKernel()
			if !sub.KernelFresh() {
				t.Fatal("kernel stale after bake")
			}
			tc.mutate(t, sub)
			if sub.KernelFresh() {
				t.Fatalf("%s left the kernel fresh", tc.name)
			}
			sub.BakeKernel()
			if !sub.KernelFresh() {
				t.Fatal("rebake did not restore freshness")
			}
		})
	}
}

// TestFreshnessTableMatchesGenstamp cross-checks the runtime freshness
// table against the genstamp analyzer's statically discovered mutator
// set: every table entry must be rediscovered from the code, and the
// only mutators beyond the table must be the known internal ones, so
// neither gate can silently fall behind the other.
func TestFreshnessTableMatchesGenstamp(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	survey := lint.MutatorSurvey(lint.NewProgram(pkgs))
	discovered := survey["repro/internal/crossbar.Crossbar"]
	if len(discovered) == 0 {
		t.Fatalf("genstamp discovered no Crossbar mutators; survey keys: %v", keysOf(survey))
	}
	set := map[string]bool{}
	for _, name := range discovered {
		set[name] = true
	}
	for _, tc := range freshnessTable {
		if !set[tc.name] {
			t.Errorf("freshness-table entry %s not discovered by genstamp; stale table entry?", tc.name)
		}
	}
	// The complement direction: mutators the analyzer sees beyond the
	// table. MAC mutates only through stochastic read disturb (its own
	// invalidation is exercised by the interleaved property test), and
	// the unexported helpers are reached through exported entries.
	known := map[string]bool{"MAC": true, "writeDevice": true, "applyReadDisturb": true}
	tabled := map[string]bool{}
	for _, tc := range freshnessTable {
		tabled[tc.name] = true
	}
	for _, name := range discovered {
		if !tabled[name] && !known[name] {
			t.Errorf("genstamp discovered mutator %s with no freshness-table entry; add one to TestKernelFreshAfterMutators", name)
		}
	}
}

func keysOf(m map[string][]string) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestKernelInvalidationInterleaved is the property test of the
// invalidation contract: a random interleaving of fault injection,
// repair, scrubbing and retention ticks is applied identically to both
// twins while the subject rebakes only sometimes — so reads land on
// fresh kernels, stale-and-fallen-back kernels and the dense path in
// random succession — and every read must stay bitwise identical to the
// kernel-free reference.
func TestKernelInvalidationInterleaved(t *testing.T) {
	const rows, cols = 48, 32
	ref, sub := newTwin(0xFEED, rows, cols, kernelCfg())
	sub.BakeKernel()
	r := rng.New(0xDECAF)

	// Each op mutates both twins with identical arguments and reports
	// whether it is guaranteed to have invalidated the kernel.
	ops := []func(c *Crossbar, seed uint64, row, col, n int) bool{
		func(c *Crossbar, seed uint64, row, col, n int) bool {
			c.SetStuck(row, col, n%2 == 0, StuckAP)
			return true
		},
		func(c *Crossbar, seed uint64, row, col, n int) bool {
			c.SetWeak(row, col, n%2 == 1, n%3)
			return true
		},
		func(c *Crossbar, seed uint64, row, col, n int) bool {
			return c.ClearWeak(row, col, n%2 == 1)
		},
		func(c *Crossbar, seed uint64, row, col, n int) bool { return c.KillRow(row) },
		func(c *Crossbar, seed uint64, row, col, n int) bool { return c.KillCol(col) },
		func(c *Crossbar, seed uint64, row, col, n int) bool { return c.RemapRow(row) },
		func(c *Crossbar, seed uint64, row, col, n int) bool { return c.RemapCol(col) },
		func(c *Crossbar, seed uint64, row, col, n int) bool {
			c.WritePair(row, col)
			return true
		},
		func(c *Crossbar, seed uint64, row, col, n int) bool {
			c.CompensatePair(row, col)
			return false // no-fault pairs are a pure read
		},
		func(c *Crossbar, seed uint64, row, col, n int) bool {
			c.Tick(int64(n + 1))
			return true
		},
		func(c *Crossbar, seed uint64, row, col, n int) bool {
			c.Refresh()
			return true
		},
		func(c *Crossbar, seed uint64, row, col, n int) bool {
			c.InjectStuckFaults(rng.New(seed), 0.02, StuckP)
			return true
		},
		func(c *Crossbar, seed uint64, row, col, n int) bool {
			if err := c.Program(randWeights(rng.New(seed), c.Rows, c.Cols, 1), 1); err != nil {
				t.Fatal(err)
			}
			return true
		},
	}

	for iter := 0; iter < 400; iter++ {
		op := ops[r.Intn(len(ops))]
		seed, row, col, n := r.Uint64(), r.Intn(rows), r.Intn(cols), r.Intn(16)
		mutated := op(ref, seed, row, col, n)
		if m := op(sub, seed, row, col, n); m != mutated {
			t.Fatalf("iter %d: twins diverged: op reported %v vs %v", iter, m, mutated)
		}
		if mutated && sub.KernelFresh() {
			t.Fatalf("iter %d: mutation left the kernel fresh", iter)
		}
		if r.Float64() < 0.5 {
			sub.BakeKernel()
		}
		in, act := sparseInput(r, rows, r.Float64())
		want, got, gotAct := readPair(t, ref, sub, in, act, r.Uint64())
		assertBitwise(t, "interleaved/scan", want, got)
		assertBitwise(t, "interleaved/active", want, gotAct)
	}
}

// FuzzMACReadKernel lets the fuzzer search for a geometry, sparsity,
// fault load or age where the baked kernel diverges from the dense read.
func FuzzMACReadKernel(f *testing.F) {
	f.Add(uint64(1), uint8(16), uint8(8), uint8(128), uint8(0), uint64(17))
	f.Add(uint64(2), uint8(1), uint8(1), uint8(0), uint8(7), uint64(5))
	f.Add(uint64(3), uint8(200), uint8(64), uint8(255), uint8(3), uint64(99))
	f.Fuzz(func(t *testing.T, seed uint64, rows8, cols8, sparsity, flags uint8, noiseSeed uint64) {
		rows, cols := int(rows8)+1, int(cols8)+1
		cfg := Config{}
		if flags&1 != 0 {
			cfg.ReadNoiseSigma = 0.05
		}
		if flags&2 != 0 {
			cfg.IRDropAlpha = 0.4
		}
		if flags&4 != 0 {
			cfg.DriftTauSteps = 300
		}
		ref, sub := newTwin(seed, rows, cols, cfg)
		if flags&8 != 0 {
			ref.InjectStuckFaults(rng.New(seed+9), 0.05, StuckAP)
			sub.InjectStuckFaults(rng.New(seed+9), 0.05, StuckAP)
		}
		if cfg.DriftTauSteps > 0 {
			ref.Tick(int64(sparsity))
			sub.Tick(int64(sparsity))
		}
		sub.BakeKernel()
		r := rng.New(seed ^ 0xA5A5)
		in, act := sparseInput(r, rows, float64(sparsity)/255)
		want, got, gotAct := readPair(t, ref, sub, in, act, noiseSeed)
		assertBitwise(t, "fuzz/scan", want, got)
		assertBitwise(t, "fuzz/active", want, gotAct)
		packed := make([]float64, cols)
		if err := sub.MACReadPacked(packed, in, packMask(in), rng.New(noiseSeed), nil); err != nil {
			t.Fatal(err)
		}
		assertBitwise(t, "fuzz/packed", want, packed)
	})
}

// packMask bit-packs the nonzero positions of an input vector.
func packMask(in []float64) []uint64 {
	var p spikeplane.Plane
	p.Pack(in)
	return p.WordSlice()
}

// TestMACReadPackedBitwise is the packed-path differential test: across
// the same stress configurations as the kernel test, a full-width
// MACReadPacked must reproduce the dense read bit for bit, and a
// column/row-trimmed read must reproduce the leading columns bit for
// bit (per-column sums are independent and noise draws are in column
// index order, so trimming the tail never perturbs the head).
func TestMACReadPackedBitwise(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{}},
		{"irdrop", Config{IRDropAlpha: 0.25}},
		{"noise", Config{ReadNoiseSigma: 0.05}},
		{"drift", Config{DriftTauSteps: 800}},
		{"everything", kernelCfg()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := rng.New(0xBEEFCAFE)
			for trial := 0; trial < 10; trial++ {
				rows := 1 + r.Intn(160)
				cols := 1 + r.Intn(96)
				seed := r.Uint64()
				ref, sub := newTwin(seed, rows, cols, tc.cfg)
				if trial%2 == 0 {
					ref.InjectStuckFaults(rng.New(seed+2), 0.03, StuckAP)
					sub.InjectStuckFaults(rng.New(seed+2), 0.03, StuckAP)
				}
				if trial%3 == 0 {
					row := r.Intn(rows)
					ref.KillRow(row)
					sub.KillRow(row)
				}
				if tc.cfg.DriftTauSteps > 0 {
					age := int64(r.Intn(2000))
					ref.Tick(age)
					sub.Tick(age)
				}
				sub.BakeKernel()

				for _, frac := range []float64{0, 0.1, 0.5, 1} {
					in, _ := sparseInput(r, rows, frac)
					mask := packMask(in)
					noiseSeed := r.Uint64()
					var sRef, sSub Stats
					want := readInto(t, ref, in, nil, noiseSeed, &sRef)
					got := make([]float64, cols)
					if err := sub.MACReadPacked(got, in, mask, rng.New(noiseSeed), &sSub); err != nil {
						t.Fatal(err)
					}
					assertBitwise(t, tc.name+"/packed", want, got)
					if sRef.MACs != sSub.MACs || sRef.ActiveRowSum != sSub.ActiveRowSum ||
						math.Float64bits(sRef.OutputCurrentUA) != math.Float64bits(sSub.OutputCurrentUA) {
						t.Fatalf("%s: stats diverged: dense %+v, packed %+v", tc.name, sRef, sSub)
					}

					// Trimmed read: silent tail rows dropped from the input,
					// only the leading columns computed.
					inLen := rows - r.Intn(rows/2+1)
					for i := inLen; i < rows; i++ {
						in[i] = 0
					}
					mask = packMask(in[:inLen])
					wantTrim := readInto(t, ref, in, nil, noiseSeed, nil)
					nd := 1 + r.Intn(cols)
					trim := make([]float64, nd)
					if err := sub.MACReadPacked(trim, in[:inLen], mask, rng.New(noiseSeed), nil); err != nil {
						t.Fatal(err)
					}
					assertBitwise(t, tc.name+"/trimmed", wantTrim[:nd], trim)
				}
			}
		})
	}
}

// TestMACReadPackedNoisyFullWidth is the property the engine's noisy
// walk rests on: over random arrays, activities, dead lines and drift
// ages, a full-width MACReadPacked with read noise draws exactly what
// MACReadInto draws, in the same order, so its column sums and Stats
// equal both MACReadInto branches — the dense walk (no kernel) and the
// baked kernel — bit for bit.
func TestMACReadPackedNoisyFullWidth(t *testing.T) {
	cfg := Config{IRDropAlpha: 0.3, ReadNoiseSigma: 0.05, DriftTauSteps: 800, SpareRows: 2, SpareCols: 2}
	r := rng.New(0x5EED)
	for trial := 0; trial < 24; trial++ {
		rows := 1 + r.Intn(160)
		cols := 1 + r.Intn(128)
		seed := r.Uint64()
		ref, sub := newTwin(seed, rows, cols, cfg)
		for _, x := range []*Crossbar{ref, sub} {
			x.InjectStuckFaults(rng.New(seed+2), 0.02, StuckAP)
			x.KillRow(int(seed % uint64(rows)))
			x.KillCol(int(seed % uint64(cols)))
			x.Tick(int64(seed % 3000))
		}
		sub.BakeKernel()
		for _, frac := range []float64{0, 0.02, 0.1, 0.3, 0.9, 1} {
			in, _ := sparseInput(r, rows, frac)
			noiseSeed := r.Uint64()
			var sDense, sKern, sPacked Stats
			dense := readInto(t, ref, in, nil, noiseSeed, &sDense)
			kern := readInto(t, sub, in, nil, noiseSeed, &sKern)
			packed := make([]float64, cols)
			if err := sub.MACReadPacked(packed, in, packMask(in), rng.New(noiseSeed), &sPacked); err != nil {
				t.Fatal(err)
			}
			assertBitwise(t, "dense branch", dense, packed)
			assertBitwise(t, "kernel branch", kern, packed)
			for _, s := range []Stats{sDense, sKern} {
				if s.MACs != sPacked.MACs || s.ActiveRowSum != sPacked.ActiveRowSum ||
					math.Float64bits(s.OutputCurrentUA) != math.Float64bits(sPacked.OutputCurrentUA) {
					t.Fatalf("trial %d activity %v: stats diverged: read %+v, packed %+v", trial, frac, s, sPacked)
				}
			}
		}
	}
}

// TestMACReadPackedStaleKernel pins the fallback contract: without a
// fresh kernel the packed path refuses with ErrStaleKernel rather than
// silently computing on stale terms.
func TestMACReadPackedStaleKernel(t *testing.T) {
	_, sub := newTwin(5, 8, 6, Config{})
	in, _ := sparseInput(rng.New(1), 8, 0.5)
	mask := packMask(in)
	dst := make([]float64, 6)
	if err := sub.MACReadPacked(dst, in, mask, nil, nil); !errors.Is(err, ErrStaleKernel) {
		t.Fatalf("unbaked packed read: got %v, want ErrStaleKernel", err)
	}
	sub.BakeKernel()
	if err := sub.MACReadPacked(dst, in, mask, nil, nil); err != nil {
		t.Fatalf("fresh packed read failed: %v", err)
	}
	sub.KillRow(0)
	if err := sub.MACReadPacked(dst, in, mask, nil, nil); !errors.Is(err, ErrStaleKernel) {
		t.Fatalf("stale packed read: got %v, want ErrStaleKernel", err)
	}
	sub.BakeKernel()
	if err := sub.MACReadPacked(make([]float64, 7), in, mask, nil, nil); err == nil {
		t.Fatal("oversized destination accepted")
	}
	if err := sub.MACReadPacked(dst, make([]float64, 9), mask, nil, nil); err == nil {
		t.Fatal("oversized input accepted")
	}
}

// benchmarkSparsity measures the dense reference against the baked
// kernel at one active-row fraction on a full 128×128 array. The suffix
// in the benchmark names is the SPARSITY (fraction of silent rows):
// Sparsity90 drives 10% of the rows.
func benchmarkSparsity(b *testing.B, activeFrac float64) {
	const rows, cols = 128, 128
	_, cb := newTwin(99, rows, cols, Config{IRDropAlpha: 0.3})
	in, act := sparseInput(rng.New(42), rows, activeFrac)
	dst := make([]float64, cols)
	b.Run("dense", func(b *testing.B) {
		cb.DropKernel()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := cb.MACReadInto(dst, in, act, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("kernel", func(b *testing.B) {
		cb.BakeKernel()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := cb.MACReadInto(dst, in, act, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkMACRead_Sparsity90(b *testing.B) { benchmarkSparsity(b, 0.10) }
func BenchmarkMACRead_Sparsity50(b *testing.B) { benchmarkSparsity(b, 0.50) }
func BenchmarkMACRead_Sparsity10(b *testing.B) { benchmarkSparsity(b, 0.90) }
