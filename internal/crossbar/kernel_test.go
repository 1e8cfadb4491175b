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

// binaryInput draws a binary spike vector (active entries exactly 1.0)
// at the given active fraction and returns it with its increasing
// active-index list.
func binaryInput(r *rng.Rand, rows int, activeFrac float64) ([]float64, []int) {
	in := make([]float64, rows)
	var act []int
	for i := range in {
		if r.Float64() < activeFrac {
			in[i] = 1
			act = append(act, i)
		}
	}
	return in, act
}

// onesVec is the drive a caller with a binary plane passes instead of
// the real input: 1.0 at every row.
func onesVec(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
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
// geometries, sparsities, fault loads, drift ages and noise, graded and
// binary inputs, the baked kernel — lane or graded — must reproduce the
// dense read bit for bit, both when scanning the input and when driven
// by an explicit spike list.
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
				for _, bake := range []func(){sub.BakeKernel, sub.BakeGradedKernel} {
					bake()
					if !sub.KernelFresh() {
						t.Fatal("kernel stale immediately after bake")
					}
					for _, frac := range []float64{0, 0.1, 0.5, 0.9, 1} {
						for _, draw := range []func(*rng.Rand, int, float64) ([]float64, []int){sparseInput, binaryInput} {
							in, act := draw(r, rows, frac)
							noiseSeed := r.Uint64()
							want, got, gotAct := readPair(t, ref, sub, in, act, noiseSeed)
							assertBitwise(t, tc.name+"/scan", want, got)
							assertBitwise(t, tc.name+"/active", want, gotAct)
						}
					}
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
	{"ImportStateBlob", func(t *testing.T, c *Crossbar) {
		if err := c.ImportStateBlob(c.StateBlob()); err != nil {
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
	// table. The unexported helper is reached through exported entries.
	known := map[string]bool{"writeDevice": true}
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
// Flag bit 16 drives a binary input, which MACReadPacked reads from its
// lane plane, both as the real 0/1 vector and as a ones vector; bit 32
// switches the faults to stuck-P; bit 64 bakes the graded kernel.
func FuzzMACReadKernel(f *testing.F) {
	f.Add(uint64(1), uint8(16), uint8(8), uint8(128), uint8(0), uint64(17))
	f.Add(uint64(2), uint8(1), uint8(1), uint8(0), uint8(7), uint64(5))
	f.Add(uint64(3), uint8(200), uint8(64), uint8(255), uint8(3), uint64(99))
	f.Add(uint64(4), uint8(127), uint8(127), uint8(90), uint8(16|8|2), uint64(7))
	f.Add(uint64(5), uint8(40), uint8(130), uint8(255), uint8(16|32|8|4|1), uint64(3))
	f.Add(uint64(6), uint8(90), uint8(30), uint8(200), uint8(64|16|8|2), uint64(11))
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
			mode := StuckAP
			if flags&32 != 0 {
				mode = StuckP
			}
			ref.InjectStuckFaults(rng.New(seed+9), 0.05, mode)
			sub.InjectStuckFaults(rng.New(seed+9), 0.05, mode)
		}
		if cfg.DriftTauSteps > 0 {
			ref.Tick(int64(sparsity))
			sub.Tick(int64(sparsity))
		}
		if flags&64 != 0 {
			sub.BakeGradedKernel()
		} else {
			sub.BakeKernel()
		}
		r := rng.New(seed ^ 0xA5A5)
		draw := sparseInput
		if flags&16 != 0 {
			draw = binaryInput
		}
		in, act := draw(r, rows, float64(sparsity)/255)
		want, got, gotAct := readPair(t, ref, sub, in, act, noiseSeed)
		assertBitwise(t, "fuzz/scan", want, got)
		assertBitwise(t, "fuzz/active", want, gotAct)
		packed := make([]float64, cols)
		if err := sub.MACReadPacked(packed, in, packMask(in), rng.New(noiseSeed), nil); err != nil {
			t.Fatal(err)
		}
		assertBitwise(t, "fuzz/packed", want, packed)
		if flags&16 != 0 {
			if err := sub.MACReadPacked(packed, onesVec(rows), packMask(in), rng.New(noiseSeed), nil); err != nil {
				t.Fatal(err)
			}
			assertBitwise(t, "fuzz/packed-ones", want, packed)
		}
	})
}

// packMask bit-packs the nonzero positions of an input vector.
func packMask(in []float64) []uint64 {
	var p spikeplane.Plane
	p.Pack(in)
	return p.WordSlice()
}

// TestMACReadPackedBitwise is the packed-path differential test: across
// the same stress configurations as the kernel test, on lane and graded
// kernels in turn, a full-width
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
				if trial%2 == 1 {
					sub.BakeGradedKernel()
				} else {
					sub.BakeKernel()
				}

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

// denseRead reads c through the dense walk — its kernel dropped for the
// read and rebaked after it — into a fresh full-width buffer.
func denseRead(t *testing.T, c *Crossbar, in []float64, noiseSeed uint64, stats *Stats) []float64 {
	t.Helper()
	c.DropKernel()
	defer c.BakeKernel()
	return readInto(t, c, in, nil, noiseSeed, stats)
}

// packedRead is one MACReadPacked of the rows set in in, driven by
// drive (the real input or a ones vector), into a fresh dst of width nd.
func packedRead(t *testing.T, c *Crossbar, nd int, drive, in []float64, noiseSeed uint64, stats *Stats) []float64 {
	t.Helper()
	out := make([]float64, nd)
	if err := c.MACReadPacked(out, drive, packMask(in), rng.New(noiseSeed), stats); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMACReadPackedBinary is the lane path's differential test: binary
// reads through MACReadPacked — driven by the real 0/1 vector and by a
// ones vector — must equal the dense walk of the same array bit for bit,
// stats included, across the analog configurations, stuck-AP and
// stuck-P faults, dead and remapped rows and columns, widths that are
// not a multiple of four (and wider than one 128-column lane block),
// row- and column-trimmed reads and all-rows-active reads, and the same
// trimmed read on the graded kernel, which has no lanes. A read with one
// active value other than 1.0 must take the float path and match too; a
// lane read of it would count that row as 1.
func TestMACReadPackedBinary(t *testing.T) {
	spares := func(c Config) Config { c.SpareRows, c.SpareCols = 3, 3; return c }
	cases := []struct {
		name string
		cfg  Config
	}{
		{"plain", spares(Config{})},
		{"irdrop", spares(Config{IRDropAlpha: 0.25})},
		{"noise", spares(Config{ReadNoiseSigma: 0.05})},
		{"drift", spares(Config{DriftTauSteps: 800})},
		{"everything", kernelCfg()},
	}
	widths := []int{1, 3, 5, 30, 63, 97, 127, 128, 130, 150}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := rng.New(0xB1A5)
			for trial, cols := range widths {
				rows := 1 + r.Intn(160)
				seed := r.Uint64()
				_, sub := newTwin(seed, rows, cols, tc.cfg)
				switch trial % 3 {
				case 0:
					sub.InjectStuckFaults(rng.New(seed+2), 0.05, StuckAP)
				case 1:
					sub.InjectStuckFaults(rng.New(seed+2), 0.05, StuckP)
				}
				if trial%2 == 0 {
					row, col := r.Intn(rows), r.Intn(cols)
					sub.KillRow(row)
					sub.KillCol(col)
					if trial%4 == 0 {
						sub.RemapRow(row)
						sub.RemapCol(col)
						sub.KillRow(r.Intn(rows)) // and one row left dead
					}
				}
				if tc.cfg.DriftTauSteps > 0 {
					sub.Tick(int64(r.Intn(2000)))
				}
				sub.BakeKernel()
				if sub.kern.lanes == nil {
					t.Fatalf("%d×%d array at %d levels baked no lane plane", rows, cols, sub.P.States())
				}
				ones := onesVec(rows)
				for _, frac := range []float64{0, 0.1, 0.5, 0.9, 1} {
					in, act := binaryInput(r, rows, frac)
					noiseSeed := r.Uint64()
					var sWant, sIn, sOnes Stats
					want := denseRead(t, sub, in, noiseSeed, &sWant)
					assertBitwise(t, tc.name+"/binary", want, packedRead(t, sub, cols, in, in, noiseSeed, &sIn))
					assertBitwise(t, tc.name+"/ones", want, packedRead(t, sub, cols, ones, in, noiseSeed, &sOnes))
					for _, s := range []Stats{sIn, sOnes} {
						if s.MACs != sWant.MACs || s.ActiveRowSum != sWant.ActiveRowSum ||
							math.Float64bits(s.OutputCurrentUA) != math.Float64bits(sWant.OutputCurrentUA) {
							t.Fatalf("%s: stats diverged: dense %+v, packed %+v", tc.name, sWant, s)
						}
					}

					// Mixed: one live active row driven at 0.5.
					for _, row := range act {
						if !sub.kern.rowDead[row] {
							mixed := append([]float64(nil), in...)
							mixed[row] = 0.5
							want := denseRead(t, sub, mixed, noiseSeed, nil)
							assertBitwise(t, tc.name+"/mixed", want, packedRead(t, sub, cols, mixed, mixed, noiseSeed, nil))
							break
						}
					}

					// Trimmed: silent tail rows dropped, leading columns only.
					inLen := rows - r.Intn(rows/2+1)
					clear(in[inLen:])
					wantTrim := denseRead(t, sub, in, noiseSeed, nil)
					nd := 1 + r.Intn(cols)
					assertBitwise(t, tc.name+"/trimmed", wantTrim[:nd],
						packedRead(t, sub, nd, in[:inLen], in[:inLen], noiseSeed, nil))
					assertBitwise(t, tc.name+"/trimmed-ones", wantTrim[:nd],
						packedRead(t, sub, nd, ones[:inLen], in[:inLen], noiseSeed, nil))

					// The graded kernel reads the same binary plane as floats.
					sub.BakeGradedKernel()
					assertBitwise(t, tc.name+"/graded-kernel", wantTrim[:nd],
						packedRead(t, sub, nd, ones[:inLen], in[:inLen], noiseSeed, nil))
					sub.BakeKernel()
				}
			}
		})
	}
}

// TestMACReadPackedBinaryBlank covers the lane bake of a never-written
// array, which stores no levels: its lanes hold the bare bias, and a
// binary read, dead row included, must equal the dense walk's zeros.
func TestMACReadPackedBinaryBlank(t *testing.T) {
	for _, cols := range []int{5, 8, 130} {
		c := New(40, cols, device.DefaultParams(), Config{IRDropAlpha: 0.2}, nil)
		c.KillRow(3)
		c.BakeKernel()
		in, _ := binaryInput(rng.New(uint64(cols)), 40, 0.6)
		want := denseRead(t, c, in, 1, nil)
		assertBitwise(t, "blank", want, packedRead(t, c, cols, onesVec(40), in, 1, nil))
	}
}

// TestMACReadPackedLaneGuard pins the lane guard: a device with 3200
// levels could carry a full-array lane sum out of its 16 bits, so its
// bake builds no lane plane and every binary read takes the float path,
// still bitwise equal to the dense walk at every activity, all rows
// active included.
func TestMACReadPackedLaneGuard(t *testing.T) {
	p := device.DefaultParams()
	p.PinResolutionNM = 0.1
	if p.States() != 3200 {
		t.Fatalf("device has %d levels, want 3200", p.States())
	}
	const rows, cols = 128, 37
	c := New(rows, cols, p, Config{IRDropAlpha: 0.2}, rng.New(3))
	if err := c.Program(randWeights(rng.New(4), rows, cols, 1), 1); err != nil {
		t.Fatal(err)
	}
	c.BakeKernel()
	if c.kern.lanes != nil {
		t.Fatal("3200-level array baked a lane plane")
	}
	r := rng.New(5)
	for _, frac := range []float64{0.1, 0.5, 1} {
		in, _ := binaryInput(r, rows, frac)
		want := denseRead(t, c, in, 1, nil)
		assertBitwise(t, "guard", want, packedRead(t, c, cols, onesVec(rows), in, 1, nil))
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
// kernel (/kernel: float32 diffs; /graded: the ANN cores' float64
// diffs) at one active-row fraction on a full 128×128 array. The suffix
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
	for _, bk := range []struct {
		name string
		bake func()
	}{{"kernel", cb.BakeKernel}, {"graded", cb.BakeGradedKernel}} {
		b.Run(bk.name, func(b *testing.B) {
			bk.bake()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := cb.MACReadInto(dst, in, act, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMACRead_Sparsity90(b *testing.B) { benchmarkSparsity(b, 0.10) }
func BenchmarkMACRead_Sparsity50(b *testing.B) { benchmarkSparsity(b, 0.50) }
func BenchmarkMACRead_Sparsity10(b *testing.B) { benchmarkSparsity(b, 0.90) }

// benchmarkBinary times the production packed read of a binary spike
// plane on the same 128×128 array as benchmarkSparsity: the active rows
// of the same draw, driven through MACReadPacked with a ones vector.
// The suffix is again the sparsity: Binary90 drives 10% of the rows.
func benchmarkBinary(b *testing.B, activeFrac float64) {
	const rows, cols = 128, 128
	_, cb := newTwin(99, rows, cols, Config{IRDropAlpha: 0.3})
	in, _ := sparseInput(rng.New(42), rows, activeFrac)
	mask := packMask(in)
	ones := make([]float64, rows)
	for i := range ones {
		ones[i] = 1
	}
	dst := make([]float64, cols)
	cb.BakeKernel()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := cb.MACReadPacked(dst, ones, mask, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMACRead_Binary90(b *testing.B) { benchmarkBinary(b, 0.10) }
func BenchmarkMACRead_Binary50(b *testing.B) { benchmarkBinary(b, 0.50) }
func BenchmarkMACRead_Binary10(b *testing.B) { benchmarkBinary(b, 0.90) }

// BenchmarkBakeKernel times baking one programmed 128×128 array, the
// per-array cost compile and image load pay, for both kernel kinds.
func BenchmarkBakeKernel(b *testing.B) {
	_, cb := newTwin(99, 128, 128, Config{IRDropAlpha: 0.3})
	for _, bk := range []struct {
		name string
		bake func()
	}{{"lanes", cb.BakeKernel}, {"graded", cb.BakeGradedKernel}} {
		b.Run(bk.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bk.bake()
			}
		})
	}
}
