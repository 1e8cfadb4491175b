package image

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// countingMetrics is a plain Metrics sink for the cache tests.
type countingMetrics struct {
	hits, misses, stores, quarantines int
}

func (m *countingMetrics) AddHit()        { m.hits++ }
func (m *countingMetrics) AddMiss()       { m.misses++ }
func (m *countingMetrics) AddStore()      { m.stores++ }
func (m *countingMetrics) AddQuarantine() { m.quarantines++ }

func TestCachePutGet(t *testing.T) {
	m := &countingMetrics{}
	cache, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cache.SetMetrics(m)
	data := encodeTestImage(t)

	if _, ok := cache.Get("missing"); ok {
		t.Fatal("Get on an empty cache reported a hit")
	}
	if err := cache.Put("k1", data); err != nil {
		t.Fatal(err)
	}
	got, ok := cache.Get("k1")
	if !ok || !bytes.Equal(got, data) {
		t.Fatalf("Get after Put: ok=%v, %d bytes, want %d", ok, len(got), len(data))
	}
	if m.hits != 1 || m.misses != 1 || m.stores != 1 {
		t.Fatalf("metrics %+v, want 1 hit / 1 miss / 1 store", m)
	}
}

func TestCacheRejectsInvalidPut(t *testing.T) {
	cache, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.Put("k", []byte("not an image")); err == nil {
		t.Fatal("Put accepted bytes that fail verification")
	}
	if _, ok := cache.Get("k"); ok {
		t.Fatal("rejected Put still installed an entry")
	}
}

func TestCacheQuarantinesCorruptEntry(t *testing.T) {
	m := &countingMetrics{}
	dir := t.TempDir()
	cache, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache.SetMetrics(m)
	data := encodeTestImage(t)
	if err := cache.Put("k1", data); err != nil {
		t.Fatal(err)
	}

	// Flip a payload bit on disk: the next Get must quarantine the entry
	// and report a miss rather than hand out bad bytes.
	path := filepath.Join(dir, "k1.nebimg")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[headerLen+1] ^= 0x08
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.Get("k1"); ok {
		t.Fatal("Get served a corrupt entry")
	}
	if _, err := os.Stat(filepath.Join(dir, "k1.corrupt")); err != nil {
		t.Fatalf("corrupt entry not renamed aside: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt entry still in service: %v", err)
	}
	if _, ok := cache.Get("k1"); ok {
		t.Fatal("Get after quarantine reported a hit")
	}
	if m.quarantines != 1 || m.misses != 2 {
		t.Fatalf("metrics %+v, want 1 quarantine / 2 misses", m)
	}

	// A fresh Put re-installs over the quarantined key.
	if err := cache.Put("k1", data); err != nil {
		t.Fatal(err)
	}
	if got, ok := cache.Get("k1"); !ok || !bytes.Equal(got, data) {
		t.Fatal("Put after quarantine did not restore the entry")
	}
}

func TestNewCacheValidation(t *testing.T) {
	if _, err := NewCache(""); err == nil {
		t.Fatal("NewCache accepted an empty directory")
	}
	dir := filepath.Join(t.TempDir(), "nested", "cache")
	if _, err := NewCache(dir); err != nil {
		t.Fatalf("NewCache did not create nested directories: %v", err)
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Fatalf("cache root missing after NewCache: %v", err)
	}
}
