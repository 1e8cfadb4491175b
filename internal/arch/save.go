package arch

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/crossbar"
	"repro/internal/image"
)

// This file is the save half of chip imaging: a compiled session is
// flattened into an image.Payload — model spec, chip environment,
// compile configuration and every non-blank crossbar's device state, in
// the canonical forEachSuperTile order — and written in the versioned
// wire format. The load half lives in load.go; the two walk the
// pipeline in the same order, which is what lets the loader consume the
// tile list without any addressing scheme.

// SaveImage writes the session's chip image to w: everything needed to
// rehydrate an equivalent session with LoadSession, skipping
// programming, fault injection and the BIST/protect pipeline. Wear-mode
// sessions and sessions with caller-supplied encoders are not imageable
// and return an error.
func (s *Session) SaveImage(w io.Writer) error {
	p, err := s.imagePayload()
	if err != nil {
		return err
	}
	return image.Encode(w, p)
}

// imagePayload assembles the session's image payload.
func (s *Session) imagePayload() (*image.Payload, error) {
	if s.cfg.Wear {
		return nil, fmt.Errorf("arch: wear session is not imageable: its runs mutate the programmed arrays")
	}
	if s.cfg.sharedEnc != nil || s.cfg.encCustom {
		return nil, fmt.Errorf("arch: session with a caller-supplied encoder is not imageable: the encoder has no serializable form")
	}
	spec, err := image.EncodeModel(s.model)
	if err != nil {
		return nil, err
	}
	tiles, err := s.exportTiles()
	if err != nil {
		return nil, err
	}
	return &image.Payload{
		Model:  *spec,
		Chip:   s.chip.imageSpec(),
		Config: imageConfig(s.cfg.CompileConfig),
		Tiles:  tiles,
	}, nil
}

// imageSpec snapshots the chip's hardware environment for an image (and
// for the compile-cache key).
func (ch *Chip) imageSpec() image.ChipSpec {
	spec := image.ChipSpec{
		Device:    ch.P,
		Crossbar:  ch.Cfg,
		WMax:      ch.WMax,
		FaultRate: ch.FaultRate,
		FaultMode: int(ch.FaultMode),
		HadNoise:  ch.noise != nil,
		Health:    ch.health,
	}
	if ch.Rel != nil {
		rel := *ch.Rel
		spec.Rel = &rel
	}
	switch {
	case ch.noiseFPSet:
		spec.NoiseFingerprint = ch.noiseFP
	case ch.noise != nil:
		spec.NoiseFingerprint = ch.noise.Fingerprint()
	}
	return spec
}

// imageConfig maps the serializable compile configuration onto its
// image mirror.
func imageConfig(c CompileConfig) image.SessionConfig {
	return image.SessionConfig{
		Mode:        int(c.Mode),
		Timesteps:   c.Timesteps,
		HybridSplit: c.HybridSplit,
		Parallelism: c.Parallelism,
		Seed:        c.Seed,
		SeedSet:     c.SeedSet,
		InputShape:  append([]int(nil), c.InputShape...),
		Wear:        c.Wear,
	}
}

// configFromImage is the inverse of imageConfig.
func configFromImage(c image.SessionConfig) CompileConfig {
	return CompileConfig{
		Mode:        Mode(c.Mode),
		Timesteps:   c.Timesteps,
		HybridSplit: c.HybridSplit,
		Parallelism: c.Parallelism,
		Seed:        c.Seed,
		SeedSet:     c.SeedSet,
		InputShape:  append([]int(nil), c.InputShape...),
		Wear:        c.Wear,
	}
}

// exportTiles snapshots every routed super-tile in the canonical
// pipeline order. Blank arrays — fresh spares that were never touched —
// are skipped; the loader reconstructs them from geometry alone, which
// keeps images proportional to the programmed state, not the 16-AC
// provisioning.
//
// Member arrays are exported and encoded concurrently: the arrays are
// disjoint and ExportState only reads, so the fan-out is safe, and the
// results are assembled in the canonical order, so the image bytes are
// identical to a sequential walk.
func (s *Session) exportTiles() ([]image.TileState, error) {
	var tiles []image.TileState
	type job struct {
		tile, index int
		ac          *crossbar.Crossbar
	}
	var jobs []job
	s.forEachSuperTile(func(st *SuperTile) {
		t := image.TileState{
			Rows:    st.rows,
			Cols:    st.cols,
			WMax:    st.wmax,
			SlotAC:  append([]int(nil), st.slotAC...),
			Retired: append([]bool(nil), st.retired...),
		}
		for i, ac := range st.acs {
			jobs = append(jobs, job{tile: len(tiles), index: i, ac: ac})
		}
		tiles = append(tiles, t)
	})

	blobs := make([][]byte, len(jobs))
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
				state := jobs[j].ac.ExportState()
				if state.Blank() {
					continue
				}
				blobs[j], errs[j] = state.GobEncode()
			}
		}()
	}
	wg.Wait()
	for j, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("arch: encode array state: %w", err)
		}
		if blobs[j] != nil {
			t := &tiles[jobs[j].tile]
			t.ACs = append(t.ACs, image.ACState{Index: jobs[j].index, State: blobs[j]})
		}
	}
	return tiles, nil
}

// importWorkers sizes the worker pool for the parallel tile
// export/import fan-outs.
func importWorkers(jobs int) int {
	w := runtime.GOMAXPROCS(0)
	if w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}
