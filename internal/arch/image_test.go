package arch

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/convert"
	"repro/internal/dataset"
	"repro/internal/image"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/reliability"
	"repro/internal/rng"
	"repro/internal/snn"
	"repro/internal/tensor"
)

// imageBytes saves a compiled session's chip image.
func imageBytes(t *testing.T, sess *Session) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sess.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// faultyChip is sessionChip with the reliability pipeline at study
// strength: stuck and weak device faults, dead lines and spare-line
// remapping, so its images carry fault records, dead lines and remapped
// line maps that a fault-free chip never writes.
func faultyChip() *Chip {
	ch := sessionChip()
	ch.Rel = reliability.StudyConfig(0.01, reliability.ProtectSpareRemap)
	return ch
}

// compileOn compiles c on a fresh chip from newChip.
func compileOn(t *testing.T, newChip func() *Chip, c *convert.Converted, opts ...Option) *Session {
	t.Helper()
	sess, err := newChip().Compile(c, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// assertImageRoundTrip compiles a session on a chip from newChip, saves
// its chip image, and checks that sessions loaded from the image
// reproduce the compiled session's outputs, run statistics and exported
// observability snapshot bit for bit, at every parallelism level the
// acceptance criteria name. It returns the image.
func assertImageRoundTrip(t *testing.T, newChip func() *Chip, c *convert.Converted, imgs []*tensor.Tensor, opts ...Option) []byte {
	t.Helper()
	ctx := context.Background()
	recWant := obs.NewRecorder()
	sess := compileOn(t, newChip, c, append(append([]Option(nil), opts...), WithObserver(recWant))...)
	data := imageBytes(t, sess)
	want, err := sess.RunBatch(ctx, imgs)
	if err != nil {
		t.Fatal(err)
	}
	wantObs := obsExport(t, recWant)

	for _, par := range []int{1, 4, runtime.NumCPU()} {
		recGot := obs.NewRecorder()
		loaded, err := LoadSession(bytes.NewReader(data), append(append([]Option(nil), opts...),
			WithObserver(recGot), WithParallelism(par))...)
		if err != nil {
			t.Fatalf("parallelism %d: load: %v", par, err)
		}
		got, err := loaded.RunBatch(ctx, imgs)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		for i := range got {
			wd, gd := want[i].Output.Data(), got[i].Output.Data()
			if len(wd) != len(gd) {
				t.Fatalf("parallelism %d input %d: output size %d, want %d", par, i, len(gd), len(wd))
			}
			for j := range wd {
				//nebula:lint-ignore float-eq bitwise identity is the contract under test
				if wd[j] != gd[j] {
					t.Fatalf("parallelism %d input %d col %d: loaded session diverged: %v != %v",
						par, i, j, gd[j], wd[j])
				}
			}
			if got[i].Prediction != want[i].Prediction || got[i].Spikes != want[i].Spikes ||
				got[i].Cycles != want[i].Cycles || got[i].NoCPackets != want[i].NoCPackets ||
				got[i].NoCHops != want[i].NoCHops || got[i].EDRAMAccesses != want[i].EDRAMAccesses {
				t.Fatalf("parallelism %d input %d: stats diverged: %+v vs %+v", par, i, got[i], want[i])
			}
		}
		if gotObs := obsExport(t, recGot); !bytes.Equal(gotObs, wantObs) {
			t.Fatalf("parallelism %d: loaded session's exported snapshot not bitwise identical\n--- compiled ---\n%s\n--- loaded ---\n%s",
				par, wantObs, gotObs)
		}
	}
	return data
}

// assertImageHoldsFaults checks that an image really carries fault
// records, a dead line and a remapped line map, by probing a session
// loaded from it: a fresh skeleton has none of them, so whatever the
// loaded arrays hold came from the image. KillRow/KillCol report a line
// that is already dead; a dead physical line p inside the logical range
// that Verify does not report as logical line p's means the map routes
// p elsewhere.
func assertImageHoldsFaults(t *testing.T, data []byte) {
	t.Helper()
	loaded, err := LoadSession(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var faults, dead, remapped int
	loaded.forEachSuperTile(func(st *SuperTile) {
		for _, ac := range st.acs {
			for r := 0; r < ac.Rows; r++ {
				for c := 0; c < ac.Cols; c++ {
					sp, sm := ac.StuckAt(r, c)
					wp, wm := ac.WeakAt(r, c)
					if sp || sm || wp || wm {
						faults++
					}
				}
			}
			m := ac.Verify()
			for p := 0; p < ac.PhysRows(); p++ {
				if !ac.KillRow(p) {
					dead++
					if p < ac.Rows && !slices.Contains(m.DeadRows, p) {
						remapped++
					}
				}
			}
			for p := 0; p < ac.PhysCols(); p++ {
				if !ac.KillCol(p) {
					dead++
					if p < ac.Cols && !slices.Contains(m.DeadCols, p) {
						remapped++
					}
				}
			}
		}
	})
	if faults == 0 || dead == 0 || remapped == 0 {
		t.Fatalf("image holds %d faulty pairs, %d dead lines and %d remapped lines; want each > 0", faults, dead, remapped)
	}
}

func TestImageRoundTripBitwiseANN(t *testing.T) {
	c, te := chipFixture(t)
	assertImageRoundTrip(t, sessionChip, c, sessionImages(t, te, 6),
		WithMode(ModeANN), WithSeed(42))
}

func TestImageRoundTripBitwiseSNN(t *testing.T) {
	c, te := chipFixture(t)
	assertImageRoundTrip(t, sessionChip, c, sessionImages(t, te, 6),
		WithMode(ModeSNN), WithTimesteps(20), WithSeed(42))
}

// TestImageRoundTripBitwiseFaulty is the faulty-chip row: read noise
// plus study-strength faults with spare remapping. Its image must carry
// every fault-side record kind, and a warm load must still reproduce
// the cold compile bit for bit.
func TestImageRoundTripBitwiseFaulty(t *testing.T) {
	c, te := chipFixture(t)
	data := assertImageRoundTrip(t, faultyChip, c, sessionImages(t, te, 6),
		WithMode(ModeSNN), WithTimesteps(20), WithSeed(42))
	assertImageHoldsFaults(t, data)
}

func TestImageRoundTripBitwiseHybrid(t *testing.T) {
	c, te := chipFixture(t)
	assertImageRoundTrip(t, sessionChip, c, sessionImages(t, te, 6),
		WithMode(ModeHybrid), WithHybridSplit(1), WithTimesteps(20), WithSeed(42))
}

func TestImageRoundTripBitwiseConv(t *testing.T) {
	// Grouped convolution exercises the position-replica banks and the
	// spill blocks — the geometry the loader must rebuild exactly.
	r := rng.New(19)
	net := nn.NewNetwork("dw",
		nn.NewConv2D("dw", 4, 4, 3, 3, 1, 1, 4, r),
		nn.NewReLU("relu"),
		nn.NewFlatten("flat"),
		nn.NewLinear("fc", 4*8*8, 4, r),
	)
	d := dataset.Generate(dataset.Spec{Name: "x", Classes: 4, Channels: 4, Size: 8, Noise: 0.1, Jitter: 1}, 16, 1)
	c, err := convert.Convert(net, d, convert.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	assertImageRoundTrip(t, sessionChip, c, sessionImages(t, d, 4),
		WithMode(ModeSNN), WithTimesteps(10), WithSeed(42), WithInputShape(4, 8, 8))
}

// TestImageByteIdenticalAcrossCompiles pins the determinism half of the
// format contract: two independent compiles of the same model over
// identically seeded chips emit byte-identical images (what `make
// image-check` gates).
func TestImageByteIdenticalAcrossCompiles(t *testing.T) {
	c, te := chipFixture(t)
	_ = te
	opts := []Option{WithMode(ModeSNN), WithTimesteps(20), WithSeed(42)}
	a := imageBytes(t, compileSession(t, c, opts...))
	b := imageBytes(t, compileSession(t, c, opts...))
	if !bytes.Equal(a, b) {
		t.Fatalf("two compiles of the same model emitted different images (%d vs %d bytes)", len(a), len(b))
	}
}

// TestImageStableAcrossLoad pins the save→load→save fixed point: a
// session rehydrated from an image must re-save to the exact same
// bytes, proving the import captured every exported field — on a
// fault-free chip and on the faulty-chip row.
func TestImageStableAcrossLoad(t *testing.T) {
	c, _ := chipFixture(t)
	opts := []Option{WithMode(ModeSNN), WithTimesteps(20), WithSeed(42)}
	for name, newChip := range map[string]func() *Chip{"clean": sessionChip, "faulty": faultyChip} {
		t.Run(name, func(t *testing.T) {
			data := imageBytes(t, compileOn(t, newChip, c, opts...))
			loaded, err := LoadSession(bytes.NewReader(data), opts...)
			if err != nil {
				t.Fatal(err)
			}
			if resaved := imageBytes(t, loaded); !bytes.Equal(resaved, data) {
				t.Fatalf("re-saved image differs from the original (%d vs %d bytes)", len(resaved), len(data))
			}
		})
	}
}

// TestLoadSessionRejectsBakedOptionChanges checks that options changing
// the programmed state itself cannot be overridden at load time.
func TestLoadSessionRejectsBakedOptionChanges(t *testing.T) {
	c, te := chipFixture(t)
	_ = te
	sess := compileSession(t, c, WithMode(ModeSNN), WithTimesteps(20), WithSeed(42))
	data := imageBytes(t, sess)
	for name, opts := range map[string][]Option{
		"mode":  {WithMode(ModeANN)},
		"split": {WithMode(ModeSNN), WithTimesteps(20), WithHybridSplit(2)},
		"shape": {WithMode(ModeSNN), WithTimesteps(20), WithInputShape(1, 16, 16)},
	} {
		if _, err := LoadSession(bytes.NewReader(data), opts...); err == nil {
			t.Fatalf("%s: load accepted an option that contradicts the image's programmed state", name)
		}
	}
	// Run-behaviour overrides stay legal.
	if _, err := LoadSession(bytes.NewReader(data),
		WithMode(ModeSNN), WithTimesteps(20), WithParallelism(2), WithSeed(7)); err != nil {
		t.Fatalf("run-behaviour override rejected: %v", err)
	}
}

// TestLoadSessionCrossVersionRejected flips the format version field and
// expects a typed *image.FormatError naming the version, before any
// checksum or payload work.
func TestLoadSessionCrossVersionRejected(t *testing.T) {
	c, te := chipFixture(t)
	_ = te
	data := imageBytes(t, compileSession(t, c, WithMode(ModeANN), WithSeed(42)))
	data[8]++ // format version, little-endian at offset 8
	var fe *image.FormatError
	if _, err := LoadSession(bytes.NewReader(data)); !errors.As(err, &fe) {
		t.Fatalf("version-skewed image: got %v, want *image.FormatError", err)
	}
}

// TestLoadSessionTruncatedAndFlipped holds the decoder to its typed-error
// contract on damaged inputs.
func TestLoadSessionTruncatedAndFlipped(t *testing.T) {
	c, te := chipFixture(t)
	_ = te
	data := imageBytes(t, compileSession(t, c, WithMode(ModeANN), WithSeed(42)))

	for _, n := range []int{0, 4, 19, len(data) / 2, len(data) - 1} {
		var fe *image.FormatError
		if _, err := LoadSession(bytes.NewReader(data[:n])); !errors.As(err, &fe) {
			t.Fatalf("truncated to %d bytes: got %v, want *image.FormatError", n, err)
		}
	}

	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x40
	var ce *image.ChecksumError
	if _, err := LoadSession(bytes.NewReader(flipped)); !errors.As(err, &ce) {
		t.Fatalf("bit-flipped payload: got %v, want *image.ChecksumError", err)
	}
}

// FuzzLoadSession holds LoadSession to "never panics on hostile input":
// any byte string must yield a session or an error, not a crash.
func FuzzLoadSession(f *testing.F) {
	d := dataset.Generate(dataset.Spec{Name: "f", Classes: 4, Channels: 1, Size: 8, Noise: 0.1, Jitter: 1}, 16, 1)
	conv, err := convert.Convert(models.NewMLP3(1, 8, 4, rng.New(7)), d, convert.DefaultConfig())
	if err != nil {
		f.Fatal(err)
	}
	sess, err := sessionChip().Compile(conv, WithMode(ModeANN), WithSeed(3))
	if err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if err := sess.SaveImage(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:len(valid.Bytes())/2])
	f.Add([]byte{})
	f.Add([]byte("NEBULAIM\x01\x00\x00\x00garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := LoadSession(bytes.NewReader(data))
		if err == nil && s == nil {
			t.Fatal("nil session without error")
		}
	})
}

// TestCompileCachedHitMissQuarantine drives the cache through its three
// lifecycle paths — miss+store, verified hit, corrupt entry quarantined
// and recompiled — checking outputs stay bitwise identical and the
// metrics sink sees every event.
func TestCompileCachedHitMissQuarantine(t *testing.T) {
	c, te := chipFixture(t)
	imgs := sessionImages(t, te, 4)
	ctx := context.Background()
	rec := &obs.CacheRecorder{}
	cache, err := image.NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cache.SetMetrics(rec)
	opts := []Option{WithMode(ModeSNN), WithTimesteps(20), WithSeed(42)}

	s1, err := sessionChip().CompileCached(c, cache, opts...)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := sessionChip().CompileCached(c, cache, opts...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s1.RunBatch(ctx, imgs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.RunBatch(ctx, imgs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		wd, gd := want[i].Output.Data(), got[i].Output.Data()
		for j := range wd {
			//nebula:lint-ignore float-eq bitwise identity is the contract under test
			if wd[j] != gd[j] {
				t.Fatalf("input %d col %d: cache hit diverged from compile: %v != %v", i, j, gd[j], wd[j])
			}
		}
	}
	if st := rec.Stats(); st.Hits != 1 || st.Misses != 1 || st.Stores != 1 {
		t.Fatalf("after miss+hit: stats %+v, want 1 hit / 1 miss / 1 store", st)
	}

	// Corrupt the entry on disk: the next compile must quarantine it,
	// recompile, and reinstall — never fail.
	entries, err := filepath.Glob(filepath.Join(cache.Dir(), "*.nebimg"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("cache entries %v (err %v), want exactly one", entries, err)
	}
	raw, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(entries[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := sessionChip().CompileCached(c, cache, opts...); err != nil {
		t.Fatalf("compile over corrupt entry: %v", err)
	}
	if st := rec.Stats(); st.Quarantines != 1 || st.Misses != 2 || st.Stores != 2 {
		t.Fatalf("after corruption: stats %+v, want 1 quarantine / 2 misses / 2 stores", st)
	}
	if quarantined, _ := filepath.Glob(filepath.Join(cache.Dir(), "*.corrupt")); len(quarantined) != 1 {
		t.Fatalf("quarantined files %v, want exactly one", quarantined)
	}
}

// TestWithImageCacheOption covers the functional-option route into the
// cached path: Compile(WithImageCache) must hit on the second call and
// reproduce the first session's outputs bit for bit.
func TestWithImageCacheOption(t *testing.T) {
	c, te := chipFixture(t)
	imgs := sessionImages(t, te, 4)
	ctx := context.Background()
	dir := t.TempDir()
	rec := &obs.CacheRecorder{}
	opts := []Option{WithMode(ModeANN), WithSeed(42), WithImageCache(dir), WithImageCacheMetrics(rec)}

	s1, err := sessionChip().Compile(c, opts...)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := sessionChip().Compile(c, opts...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s1.RunBatch(ctx, imgs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.RunBatch(ctx, imgs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		wd, gd := want[i].Output.Data(), got[i].Output.Data()
		for j := range wd {
			//nebula:lint-ignore float-eq bitwise identity is the contract under test
			if wd[j] != gd[j] {
				t.Fatalf("input %d col %d: WithImageCache hit diverged: %v != %v", i, j, gd[j], wd[j])
			}
		}
	}
	if st := rec.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v, want 1 hit / 1 miss", st)
	}
}

// TestSessionGetters pins the introspection surface a session exposes.
func TestSessionGetters(t *testing.T) {
	c, te := chipFixture(t)
	_ = te
	sess := compileSession(t, c,
		WithMode(ModeHybrid), WithHybridSplit(1), WithTimesteps(12),
		WithSeed(7), WithParallelism(3))
	if sess.Mode() != ModeHybrid {
		t.Fatalf("Mode() = %v", sess.Mode())
	}
	if sess.Timesteps() != 12 {
		t.Fatalf("Timesteps() = %d", sess.Timesteps())
	}
	if sess.HybridSplit() != 1 {
		t.Fatalf("HybridSplit() = %d", sess.HybridSplit())
	}
	if sess.Seed() != 7 {
		t.Fatalf("Seed() = %d", sess.Seed())
	}
	if sess.ParallelismLimit() != 3 {
		t.Fatalf("ParallelismLimit() = %d", sess.ParallelismLimit())
	}
	if sess.EncoderKind() != "poisson" {
		t.Fatalf("EncoderKind() = %q", sess.EncoderKind())
	}

	ann := compileSession(t, c, WithMode(ModeANN))
	if ann.Timesteps() != 0 || ann.HybridSplit() != 0 {
		t.Fatalf("ANN session reports timesteps %d, split %d", ann.Timesteps(), ann.HybridSplit())
	}
	if ann.Seed() != defaultSessionSeed {
		t.Fatalf("unseeded session Seed() = %d, want the fixed default", ann.Seed())
	}

	shared := compileSession(t, c, WithMode(ModeSNN), WithTimesteps(10),
		WithSharedEncoder(snn.NewPoissonEncoder(1.0, rng.New(1))))
	if shared.EncoderKind() != "shared" {
		t.Fatalf("EncoderKind() = %q, want shared", shared.EncoderKind())
	}

	cfg := sess.Config()
	if cfg.Mode != ModeHybrid || cfg.Timesteps != 12 || cfg.HybridSplit != 1 ||
		cfg.Seed != 7 || !cfg.SeedSet || cfg.Parallelism != 3 {
		t.Fatalf("Config() = %+v", cfg)
	}
}

// TestCompileConfigRoundTrip checks the CompileConfig ↔ option-list ↔
// hash contract: Options reproduces the configuration, WithConfig
// restores it wholesale, and Hash is stable and field-sensitive.
func TestCompileConfigRoundTrip(t *testing.T) {
	cfg := CompileConfig{
		Mode: ModeHybrid, Timesteps: 9, HybridSplit: 1, Parallelism: 2,
		Seed: 99, SeedSet: true, InputShape: []int{1, 16, 16},
	}
	var sc sessionConfig
	for _, o := range cfg.Options() {
		o(&sc)
	}
	if !reflect.DeepEqual(sc.CompileConfig, cfg) {
		t.Fatalf("Options round trip: %+v != %+v", sc.CompileConfig, cfg)
	}
	var sc2 sessionConfig
	WithConfig(cfg)(&sc2)
	if !reflect.DeepEqual(sc2.CompileConfig, cfg) {
		t.Fatalf("WithConfig round trip: %+v != %+v", sc2.CompileConfig, cfg)
	}

	if cfg.Hash() != cfg.Hash() {
		t.Fatal("Hash is not deterministic")
	}
	seen := map[string]string{cfg.Hash(): "base"}
	for name, mutate := range map[string]func(*CompileConfig){
		"mode":      func(c *CompileConfig) { c.Mode = ModeSNN },
		"timesteps": func(c *CompileConfig) { c.Timesteps = 10 },
		"split":     func(c *CompileConfig) { c.HybridSplit = 2 },
		"seed":      func(c *CompileConfig) { c.Seed = 100 },
		"shape":     func(c *CompileConfig) { c.InputShape = []int{1, 8, 8} },
	} {
		m := cfg
		m.InputShape = append([]int(nil), cfg.InputShape...)
		mutate(&m)
		h := m.Hash()
		if prev, dup := seen[h]; dup {
			t.Fatalf("mutating %s collides with %s", name, prev)
		}
		seen[h] = name
	}
}
