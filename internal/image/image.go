// Package image defines the versioned, checksummed binary chip-image
// format: the persistent artifact of a compiled NEBULA chip.
//
// The paper's chip is program-once hardware — conductances are written
// into the DW-MTJ crossbars and then only read — so the programmed state
// is itself the durable artifact. A chip image captures everything the
// generation-stamp machinery counts as read-visible compiled state:
// per-crossbar device levels and targets, fault records, line remaps and
// spare allocators, retention clocks, super-tile slot routing and
// retirement, the chip's reliability report and the serializable compile
// configuration. Baked read kernels are deliberately excluded: they are
// pure caches, bitwise-reconstructible, and are rebaked on load.
//
// # Wire layout
//
//	offset  size  field
//	0       8     magic "NEBULAIM"
//	8       4     format version, uint32 little-endian
//	12      8     payload length, uint64 little-endian
//	20      n     gob-encoded Payload
//	20+n    32    SHA-256 over bytes [0, 20+n)
//
// Decoding is defensive end to end: truncated, bit-flipped or
// version-skewed inputs surface as typed *FormatError / *ChecksumError,
// never a panic — the FuzzLoadSession target holds the decoder to that.
//
// # Determinism
//
// The payload contains no maps, no pointers into shared state and no
// timestamps, and every producer fills it in a fixed traversal order, so
// two compiles of the same model and options emit byte-identical images
// within one binary (`make image-check` gates exactly this). Gob's
// type-descriptor stream is not specified to be stable across Go
// releases, which is why the cache key bakes in the format version and a
// cache is a local artifact, not an interchange format.
package image

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"io"

	"repro/internal/crossbar"
	"repro/internal/device"
	"repro/internal/reliability"
)

const (
	// Magic identifies a chip image; it is the first 8 bytes of the file.
	Magic = "NEBULAIM"
	// FormatVersion is the current image format version. Readers reject
	// any other version: images are cheap to regenerate, so there is no
	// cross-version migration path, only a clean typed rejection.
	FormatVersion uint32 = 5
	// headerLen is magic + version + payload length.
	headerLen = len(Magic) + 4 + 8
	// checksumLen is the SHA-256 trailer.
	checksumLen = sha256.Size
	// maxPayload bounds the declared payload length so a corrupt header
	// cannot demand an absurd allocation.
	maxPayload = 1 << 31
)

// FormatError reports a structurally invalid image: bad magic, an
// unsupported format version, a truncated stream, or a payload that does
// not decode into a semantically valid chip.
type FormatError struct {
	// Reason describes what was wrong.
	Reason string
	// Err is the underlying decode error, when one exists.
	Err error
}

// Error implements error.
func (e *FormatError) Error() string {
	if e.Err != nil {
		return "image: invalid chip image: " + e.Reason + ": " + e.Err.Error()
	}
	return "image: invalid chip image: " + e.Reason
}

// Unwrap returns the underlying decode error, if any.
func (e *FormatError) Unwrap() error { return e.Err }

// formatErrf constructs a *FormatError with a formatted reason.
func formatErrf(format string, args ...interface{}) *FormatError {
	return &FormatError{Reason: fmt.Sprintf(format, args...)}
}

// ChecksumError reports an image whose SHA-256 trailer does not match its
// contents — bit rot or tampering between write and read.
type ChecksumError struct {
	// Want and Got are the stored and recomputed digests, hex-encoded.
	Want, Got string
}

// Error implements error.
func (e *ChecksumError) Error() string {
	return "image: checksum mismatch: stored " + e.Want + ", computed " + e.Got
}

// Payload is the decoded content of a chip image.
type Payload struct {
	// Model is the converted network the chip was compiled from.
	Model ModelSpec
	// Chip is the hardware environment: device physics, analog knobs,
	// reliability configuration and post-compile health.
	Chip ChipSpec
	// Config is the compile configuration the session was built with.
	Config SessionConfig
	// Tiles holds the programmed super-tile states in the chip's
	// canonical traversal order (spiking stages, spill blocks in block
	// order, then ANN stages).
	Tiles []TileState
}

// ChipSpec records the hardware environment a chip was compiled under.
// Two chips with equal specs compile a given model identically.
type ChipSpec struct {
	// Device is the DW-MTJ device calibration.
	Device device.Params
	// Crossbar holds the analog non-ideality knobs.
	Crossbar crossbar.Config
	// WMax is the full-scale weight magnitude.
	WMax float64
	// Rel is the reliability configuration (nil when unprotected).
	Rel *reliability.Config
	// HadNoise records whether the chip carried a device-noise source.
	// The stream itself is not persisted — a frozen session never draws
	// from it — but its presence gates read-noise in the run path, so it
	// must survive the round trip.
	HadNoise bool
	// NoiseFingerprint digests the noise stream's state at save time, so
	// the cache key distinguishes chips whose compile-time stochastic
	// draws (fault injection, program variation) differed.
	NoiseFingerprint uint64
	// Health is the chip's reliability report after compilation.
	Health reliability.Report
}

// SessionConfig is the serializable compile configuration. It mirrors
// arch.CompileConfig field for field; the mirror exists because package
// arch imports this package.
type SessionConfig struct {
	// Mode is the execution mode ordinal (arch.Mode).
	Mode int
	// Timesteps is the spiking window (0 in ANN mode).
	Timesteps int
	// HybridSplit is the number of trailing non-spiking stages.
	HybridSplit int
	// Parallelism is the compiled worker-count limit.
	Parallelism int
	// Seed is the session RNG seed; SeedSet records whether it was given
	// explicitly.
	Seed    uint64
	SeedSet bool
	// InputShape is the declared input tensor shape, when given.
	InputShape []int
}

// TileState is one programmed super-tile: logical geometry, slot→array
// routing, retirement flags, and the non-blank member arrays.
type TileState struct {
	// Rows, Cols are the logical matrix dimensions the tile was
	// programmed with.
	Rows, Cols int
	// WMax is the weight range of the programming.
	WMax float64
	// SlotAC routes each logical slot to a member array index.
	SlotAC []int
	// Retired flags member arrays pulled from service.
	Retired []bool
	// ACs lists the member arrays whose state differs from a fresh
	// array, in ascending Index order. Arrays not listed are blank and
	// are reconstructed from geometry alone.
	ACs []ACState
}

// ACState is one member array's device state, keyed by its index within
// the super-tile. State holds the array's state blob
// (crossbar.Crossbar.StateBlob) rather than a decoded structure:
// embedding opaque blobs lets the loader import member arrays in
// parallel — they are disjoint — instead of inside one sequential gob
// pass.
type ACState struct {
	Index int
	State []byte
}

// Encode writes the payload to w in the image wire format.
func Encode(w io.Writer, p *Payload) error {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(p); err != nil {
		return fmt.Errorf("image: encode payload: %w", err)
	}
	hdr := make([]byte, headerLen)
	copy(hdr, Magic)
	binary.LittleEndian.PutUint32(hdr[8:12], FormatVersion)
	binary.LittleEndian.PutUint64(hdr[12:20], uint64(body.Len()))
	sum := sha256.New()
	_, _ = sum.Write(hdr) // sha256 writes never fail
	_, _ = sum.Write(body.Bytes())
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("image: write header: %w", err)
	}
	if _, err := w.Write(body.Bytes()); err != nil {
		return fmt.Errorf("image: write payload: %w", err)
	}
	if _, err := w.Write(sum.Sum(nil)); err != nil {
		return fmt.Errorf("image: write checksum: %w", err)
	}
	return nil
}

// Decode reads one image from r, verifying the envelope and checksum and
// decoding the payload. Malformed input yields a *FormatError or
// *ChecksumError; Decode never panics.
func Decode(r io.Reader) (*Payload, error) {
	hdr := make([]byte, headerLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, &FormatError{Reason: "truncated header", Err: err}
	}
	plen, err := checkHeader(hdr)
	if err != nil {
		return nil, err
	}
	// LimitReader + ReadAll keeps a lying length field from forcing a
	// huge up-front allocation: only bytes actually present are buffered.
	body, err := io.ReadAll(io.LimitReader(r, int64(plen)))
	if err != nil {
		return nil, &FormatError{Reason: "reading payload", Err: err}
	}
	if uint64(len(body)) != plen {
		return nil, formatErrf("truncated payload: header declares %d bytes, got %d", plen, len(body))
	}
	stored := make([]byte, checksumLen)
	if _, err := io.ReadFull(r, stored); err != nil {
		return nil, &FormatError{Reason: "truncated checksum", Err: err}
	}
	sum := sha256.New()
	_, _ = sum.Write(hdr) // sha256 writes never fail
	_, _ = sum.Write(body)
	if got := sum.Sum(nil); !bytes.Equal(got, stored) {
		return nil, &ChecksumError{Want: hex.EncodeToString(stored), Got: hex.EncodeToString(got)}
	}
	var p Payload
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&p); err != nil {
		return nil, &FormatError{Reason: "decoding payload", Err: err}
	}
	return &p, nil
}

// DecodeTrusted decodes an in-memory image whose envelope and checksum
// have already been verified — Cache.Get runs Verify before handing the
// bytes out. It re-checks the framing, which is cheap, but skips the
// checksum pass, which on the cache-hit path would be the second full
// hash of the same bytes. Callers holding bytes of unknown provenance
// must use Decode or Verify instead.
func DecodeTrusted(data []byte) (*Payload, error) {
	if len(data) < headerLen+checksumLen {
		return nil, formatErrf("image is %d bytes, shorter than the %d-byte envelope", len(data), headerLen+checksumLen)
	}
	plen, err := checkHeader(data[:headerLen])
	if err != nil {
		return nil, err
	}
	if uint64(len(data)) != uint64(headerLen)+plen+uint64(checksumLen) {
		return nil, formatErrf("image is %d bytes, header declares %d", len(data), uint64(headerLen)+plen+uint64(checksumLen))
	}
	body := data[headerLen : uint64(headerLen)+plen]
	var p Payload
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&p); err != nil {
		return nil, &FormatError{Reason: "decoding payload", Err: err}
	}
	return &p, nil
}

// checkHeader validates a wire header and returns the declared payload
// length.
func checkHeader(hdr []byte) (uint64, error) {
	if string(hdr[:len(Magic)]) != Magic {
		return 0, formatErrf("bad magic %q", string(hdr[:len(Magic)]))
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != FormatVersion {
		return 0, formatErrf("format version %d, this build reads version %d", v, FormatVersion)
	}
	plen := binary.LittleEndian.Uint64(hdr[12:20])
	if plen > maxPayload {
		return 0, formatErrf("declared payload length %d exceeds the %d cap", plen, maxPayload)
	}
	return plen, nil
}

// Verify checks the envelope and checksum of an in-memory image without
// decoding the payload — the cheap integrity test the cache runs before
// handing an entry out.
func Verify(data []byte) error {
	if len(data) < headerLen+checksumLen {
		return formatErrf("image is %d bytes, shorter than the %d-byte envelope", len(data), headerLen+checksumLen)
	}
	plen, err := checkHeader(data[:headerLen])
	if err != nil {
		return err
	}
	if uint64(len(data)) != uint64(headerLen)+plen+uint64(checksumLen) {
		return formatErrf("image is %d bytes, header declares %d", len(data), uint64(headerLen)+plen+uint64(checksumLen))
	}
	sum := sha256.Sum256(data[:uint64(headerLen)+plen])
	if !bytes.Equal(sum[:], data[uint64(headerLen)+plen:]) {
		return &ChecksumError{
			Want: hex.EncodeToString(data[uint64(headerLen)+plen:]),
			Got:  hex.EncodeToString(sum[:]),
		}
	}
	return nil
}

// Key returns the content-addressed cache key of a compile: the SHA-256
// hex digest over the format version, the model, the chip environment and
// the compile configuration. Everything that can change a compiled
// chip's read-visible state is in the digest, so equal keys mean the
// cached image is interchangeable with a fresh compile.
func Key(model *ModelSpec, chip *ChipSpec, cfg *SessionConfig) (string, error) {
	sum := sha256.New()
	enc := gob.NewEncoder(sum)
	payload := struct {
		Version uint32
		Model   ModelSpec
		Chip    ChipSpec
		Config  SessionConfig
	}{Version: FormatVersion, Model: *model, Chip: *chip, Config: *cfg}
	if err := enc.Encode(payload); err != nil {
		return "", fmt.Errorf("image: hash compile inputs: %w", err)
	}
	return hex.EncodeToString(sum.Sum(nil)), nil
}
