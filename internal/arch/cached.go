package arch

import (
	"bytes"
	"errors"

	"repro/internal/convert"
	"repro/internal/image"
)

// This file is the serialization-first compile path: compilation keyed
// by content hash against an on-disk chip-image cache. A hit rehydrates
// the session from the stored image (no programming, no fault
// injection, no BIST); a miss compiles normally and installs the image
// for the next identical compile. The key digests everything that can
// change a compiled chip's read-visible state — the model, the chip
// environment (including the noise stream's fingerprint) and the full
// compile configuration — so a hit is interchangeable with a fresh
// compile, bit for bit.

// CompileCached is Compile through a content-addressed chip-image
// cache. Sessions the image format cannot capture — shared or custom
// encoders — bypass the cache and compile directly; so do
// models the spec cannot flatten. On a hit the returned session runs on
// a chip rehydrated from the image, not on the receiver: the receiver's
// noise stream and health report are untouched.
func (ch *Chip) CompileCached(model *convert.Converted, cache *image.Cache, opts ...Option) (*Session, error) {
	cfg := sessionConfig{}
	for _, o := range opts {
		o(&cfg)
	}
	cfg.cacheDir = ""
	return ch.compileCached(model, cache, cfg)
}

// compileCached implements CompileCached and the WithImageCache branch
// of Compile over a parsed configuration.
func (ch *Chip) compileCached(model *convert.Converted, cache *image.Cache, cfg sessionConfig) (*Session, error) {
	if cfg.sharedEnc != nil || cfg.encCustom {
		return ch.compile(model, cfg)
	}
	spec, err := image.EncodeModel(model)
	if err != nil {
		return ch.compile(model, cfg)
	}
	chipSpec := ch.imageSpec()
	imgCfg := imageConfig(cfg.CompileConfig)
	key, err := image.Key(spec, &chipSpec, &imgCfg)
	if err != nil {
		return ch.compile(model, cfg)
	}

	if data, ok := cache.Get(key); ok {
		s, lerr := loadSessionBytes(data, model, cfg)
		if lerr == nil {
			return s, nil
		}
		// The envelope verified but the payload would not rehydrate:
		// quarantine the entry and recompile. One corrupt image costs
		// one recompile, never a failed session.
		var fe *image.FormatError
		var ce *image.ChecksumError
		if errors.As(lerr, &fe) || errors.As(lerr, &ce) {
			cache.Quarantine(key)
		}
	}

	s, err := ch.compile(model, cfg)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := s.SaveImage(&buf); err == nil {
		// Best effort: a failed store costs the next compile a miss,
		// never this one its session.
		_ = cache.Put(key, buf.Bytes())
	}
	return s, nil
}

// loadSessionBytes rehydrates a session from in-memory image bytes the
// cache has already verified, under an already-resolved configuration.
// DecodeTrusted skips the checksum pass Cache.Get just ran, and the
// caller's model stands in for the payload's spec — the content hash
// guarantees they describe the same network.
func loadSessionBytes(data []byte, model *convert.Converted, cfg sessionConfig) (*Session, error) {
	p, err := image.DecodeTrusted(data)
	if err != nil {
		return nil, err
	}
	return loadSessionModel(p, model, cfg)
}
