package image

import (
	"fmt"
	"os"
	"path/filepath"
)

// This file is the content-addressed compile cache: a flat directory of
// chip images keyed by Key(model, chip, config). Writes are
// temp-file + atomic-rename so concurrent processes never observe a
// half-written entry; reads verify the envelope checksum and quarantine
// corrupt entries by renaming them aside, so one flipped bit costs one
// recompile, not a crash loop.

// Metrics receives cache lifecycle events. internal/obs provides the
// canonical implementation (obs.CacheRecorder); the interface lives here
// so this package stays import-light.
type Metrics interface {
	// AddHit counts a Get served from a verified entry.
	AddHit()
	// AddMiss counts a Get with no usable entry.
	AddMiss()
	// AddStore counts a Put that installed an entry.
	AddStore()
	// AddQuarantine counts a corrupt entry renamed out of service.
	AddQuarantine()
}

// Cache is a content-addressed on-disk store of chip images.
type Cache struct {
	dir     string
	metrics Metrics
}

// NewCache opens (creating if needed) a cache rooted at dir.
func NewCache(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("image: cache directory must be non-empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("image: create cache directory: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// SetMetrics attaches a lifecycle-event sink (nil detaches). It returns
// the receiver for chaining.
func (c *Cache) SetMetrics(m Metrics) *Cache {
	c.metrics = m
	return c
}

// entryPath returns the on-disk path of a key's image.
func (c *Cache) entryPath(key string) string {
	return filepath.Join(c.dir, key+".nebimg")
}

// Get returns the stored image bytes for key, or ok=false on a miss. An
// entry that fails envelope verification is quarantined (renamed to
// <key>.corrupt, best effort) and reported as a miss.
func (c *Cache) Get(key string) (data []byte, ok bool) {
	path := c.entryPath(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		c.miss()
		return nil, false
	}
	if err := Verify(raw); err != nil {
		c.Quarantine(key)
		c.miss()
		return nil, false
	}
	if c.metrics != nil {
		c.metrics.AddHit()
	}
	return raw, true
}

// Put installs the image bytes under key. The data is verified first —
// the cache never stores what it would immediately quarantine — then
// written to a temporary file and atomically renamed into place.
func (c *Cache) Put(key string, data []byte) error {
	if err := Verify(data); err != nil {
		return fmt.Errorf("image: refusing to cache an invalid image: %w", err)
	}
	tmp, err := os.CreateTemp(c.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("image: cache write: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmpName)
		return fmt.Errorf("image: cache write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("image: cache write: %w", err)
	}
	if err := os.Rename(tmpName, c.entryPath(key)); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("image: cache install: %w", err)
	}
	if c.metrics != nil {
		c.metrics.AddStore()
	}
	return nil
}

// Quarantine renames key's entry to <key>.corrupt so a later Get recompiles
// instead of rereading known-bad bytes. Quarantining a missing entry is a
// no-op.
func (c *Cache) Quarantine(key string) {
	if err := os.Rename(c.entryPath(key), filepath.Join(c.dir, key+".corrupt")); err == nil {
		if c.metrics != nil {
			c.metrics.AddQuarantine()
		}
	}
}

// miss reports a miss to the metrics sink.
func (c *Cache) miss() {
	if c.metrics != nil {
		c.metrics.AddMiss()
	}
}
