package arch

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/convert"
	"repro/internal/crossbar"
	"repro/internal/image"
	"repro/internal/reliability"
	"repro/internal/rng"
)

// This file is the load half of chip imaging. Rehydration reuses the
// normal compile path under the chip's restore flag — the build lays
// out identical geometry, slot routing and neuron banks but writes no
// device — then imports the recorded per-crossbar state in the same
// forEachSuperTile order the saver walked, rebakes the read kernels and
// seals the session. A loaded session is interchangeable with the one
// that was saved: same outputs bit for bit, same observability
// snapshots, at any parallelism.

// LoadSession rehydrates a compiled session from a chip image.
//
// Options adjusting run behaviour — WithTimesteps, WithParallelism,
// WithSeed, WithObserver, WithEncoder, WithSharedEncoder — may override
// what the image recorded. Options that
// would change the programmed state itself — WithMode, WithHybridSplit,
// WithInputShape — must match the image (a changed value is
// rejected): that state was baked in at compile time and a load cannot
// re-derive it.
//
// Malformed, truncated or version-skewed images yield a typed
// *image.FormatError / *image.ChecksumError; LoadSession never panics
// on hostile input.
func LoadSession(r io.Reader, opts ...Option) (*Session, error) {
	p, err := image.Decode(r)
	if err != nil {
		return nil, err
	}
	cfg := sessionConfig{CompileConfig: configFromImage(p.Config)}
	stored := cfg.CompileConfig
	for _, o := range opts {
		o(&cfg)
	}
	cfg.cacheDir = "" // a load is already past the cache
	if cfg.Mode != stored.Mode {
		return nil, fmt.Errorf("arch: load: image was compiled for mode %s, not %s; the mode is baked into the programmed state", stored.Mode, cfg.Mode)
	}
	if cfg.HybridSplit != stored.HybridSplit {
		return nil, fmt.Errorf("arch: load: image was compiled with hybrid split %d, not %d", stored.HybridSplit, cfg.HybridSplit)
	}
	if !equalShape(cfg.InputShape, stored.InputShape) {
		return nil, fmt.Errorf("arch: load: image was compiled for input shape %v, not %v", stored.InputShape, cfg.InputShape)
	}
	return loadSession(p, cfg)
}

// loadSession rehydrates a session from a decoded payload under an
// already-resolved configuration, rebuilding the model from the
// payload's spec.
func loadSession(p *image.Payload, cfg sessionConfig) (*Session, error) {
	model, err := image.DecodeModel(&p.Model)
	if err != nil {
		return nil, err
	}
	return loadSessionModel(p, model, cfg)
}

// loadSessionModel rehydrates a session from a decoded payload and an
// already-materialized model. The cache hit path enters here with the
// caller's own converted network: key equality guarantees the stored
// spec describes exactly that model, so re-deriving it from the payload
// would only reproduce what the caller already holds.
func loadSessionModel(p *image.Payload, model *convert.Converted, cfg sessionConfig) (*Session, error) {
	ch := chipFromImage(&p.Chip)
	ch.restore = true
	s, err := ch.compile(model, cfg)
	if err != nil {
		ch.restore = false
		return nil, err
	}
	if err := s.importTiles(p.Tiles); err != nil {
		ch.restore = false
		return nil, err
	}
	ch.restore = false
	if err := s.finish(reliability.Report{}); err != nil {
		return nil, err
	}
	return s, nil
}

// chipFromImage rebuilds the hardware environment a chip image records.
func chipFromImage(spec *image.ChipSpec) *Chip {
	ch := NewChip(spec.Device, spec.Crossbar, nil)
	ch.WMax = spec.WMax
	if spec.Rel != nil {
		rel := *spec.Rel
		ch.Rel = &rel
	}
	if spec.HadNoise {
		// A sentinel noise source. Its presence is what gates per-run
		// read noise in the engine; the chip-level stream itself is
		// never drawn from on the frozen path (runs draw from their own
		// reserved streams), so any seed reproduces the saved session's
		// behaviour bit for bit. The one divergence — per-array
		// program-variation streams consulted by post-load Retire — is
		// documented in DESIGN.md §13.
		ch.noise = rng.New(defaultSessionSeed)
	}
	ch.noiseFP, ch.noiseFPSet = spec.NoiseFingerprint, true
	ch.health = spec.Health
	return ch
}

// importTiles walks the rebuilt pipeline in canonical order and imports
// each super-tile's recorded state. The tile count and every geometry
// claim must match the rebuild exactly; a mismatch is a *FormatError.
//
// The walk itself is serial — it validates geometry, slot routing and
// index ordering — but the per-array work, decoding each state blob and
// importing it, fans out across a worker pool: the arrays are disjoint,
// so the import order does not matter, and this is where nearly all the
// load time goes. On failure the first error in canonical order is
// returned, so a corrupt image reports deterministically regardless of
// worker scheduling.
func (s *Session) importTiles(tiles []image.TileState) error {
	i := 0
	var impErr error
	var jobs []acImport
	s.forEachSuperTile(func(st *SuperTile) {
		if impErr != nil {
			return
		}
		if i >= len(tiles) {
			impErr = &image.FormatError{Reason: fmt.Sprintf("image holds %d tiles, rebuilt pipeline routes more", len(tiles))}
			return
		}
		jobs, impErr = st.importState(&tiles[i], jobs)
		i++
	})
	if impErr != nil {
		return impErr
	}
	if i != len(tiles) {
		return &image.FormatError{Reason: fmt.Sprintf("image holds %d tiles, rebuilt pipeline routes %d", len(tiles), i)}
	}
	return runImports(jobs)
}

// acImport is one deferred array restore: the target array and its
// encoded state blob.
type acImport struct {
	ac   *crossbar.Crossbar
	blob []byte
}

// runImports decodes and imports the collected array states in parallel.
func runImports(jobs []acImport) error {
	errs := make([]error, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < importWorkers(len(jobs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= len(jobs) {
					return
				}
				errs[j] = jobs[j].ac.ImportStateBlob(jobs[j].blob)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return &image.FormatError{Reason: "array state rejected", Err: err}
		}
	}
	return nil
}

// importState restores one super-tile from its image record: weight
// range, slot routing and retirement flags immediately, the listed
// arrays' device states as deferred jobs appended to imports. Arrays the
// image skipped stay blank, exactly as the saved tile's untouched spares
// were.
func (st *SuperTile) importState(t *image.TileState, imports []acImport) ([]acImport, error) {
	if t.Rows != st.rows || t.Cols != st.cols {
		return imports, &image.FormatError{Reason: fmt.Sprintf("tile recorded as %d×%d, rebuilt pipeline expects %d×%d", t.Rows, t.Cols, st.rows, st.cols)}
	}
	st.wmax = t.WMax
	if err := st.importSlots(t.SlotAC, t.Retired); err != nil {
		return imports, &image.FormatError{Reason: err.Error()}
	}
	last := -1
	for _, ac := range t.ACs {
		if ac.Index <= last || ac.Index >= len(st.acs) {
			return imports, &image.FormatError{Reason: fmt.Sprintf("array index %d out of order or beyond the tile's %d arrays", ac.Index, len(st.acs))}
		}
		last = ac.Index
		imports = append(imports, acImport{ac: st.acs[ac.Index], blob: ac.State})
	}
	return imports, nil
}

// equalShape compares two declared input shapes.
func equalShape(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
