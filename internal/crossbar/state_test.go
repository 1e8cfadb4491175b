package crossbar

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/device"
	"repro/internal/rng"
)

// stateRows × stateCols is the geometry the state-codec tests share: the
// freshness table's arrays (kernelCfg adds the spares).
const stateRows, stateCols = 16, 12

// freshStateArray builds a never-touched array of the shared geometry.
func freshStateArray() *Crossbar {
	return New(stateRows, stateCols, device.DefaultParams(), kernelCfg(), nil)
}

// faultyStateArray builds a programmed array carrying every record kind
// a blob can hold: stuck and weak faults, dead lines on both axes, line
// maps remapped onto spares, a shortened spare free list and a nonzero
// retention age.
func faultyStateArray(t testing.TB) *Crossbar {
	_, c := newTwin(21, stateRows, stateCols, kernelCfg())
	c.InjectStuckFaults(rng.New(4), 0.1, StuckAP)
	c.SetWeak(2, 2, false, 1)
	c.KillRow(3)
	c.KillCol(5)
	if !c.RemapRow(3) || !c.RemapCol(5) {
		t.Fatal("no spare line to remap onto")
	}
	c.Tick(7)
	return c
}

// importInto imports a blob into a fresh array of the shared geometry.
func importInto(t testing.TB, blob []byte) *Crossbar {
	t.Helper()
	c := freshStateArray()
	if err := c.ImportStateBlob(blob); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestStateBlobRoundTripMutators gives the freshness table a second use:
// whatever a mutator leaves behind must survive StateBlob →
// ImportStateBlob into a fresh array, which then reads bit-identical
// outputs and re-encodes to the same bytes.
func TestStateBlobRoundTripMutators(t *testing.T) {
	if blob := freshStateArray().StateBlob(); blob != nil {
		t.Fatalf("never-touched array encoded to %d bytes, want nil", len(blob))
	}
	// Records on a never-programmed array leave every level plane zero:
	// only the records themselves keep its blob from reading as blank.
	for name, mutate := range map[string]func(c *Crossbar){
		"stuck-AP": func(c *Crossbar) { c.SetStuck(1, 1, true, StuckAP) },
		"dead-col": func(c *Crossbar) { c.KillCol(3) },
	} {
		c := freshStateArray()
		mutate(c)
		blob := c.StateBlob()
		if blob == nil {
			t.Fatalf("%s: unprogrammed array with a record encoded as blank", name)
		}
		if again := importInto(t, blob).StateBlob(); !bytes.Equal(again, blob) {
			t.Fatalf("%s: imported array re-encodes to %d bytes, original blob %d", name, len(again), len(blob))
		}
	}
	for _, tc := range freshnessTable {
		t.Run(tc.name, func(t *testing.T) {
			_, src := newTwin(21, stateRows, stateCols, kernelCfg())
			tc.mutate(t, src)
			blob := src.StateBlob()
			if blob == nil {
				t.Fatal("mutated array encoded as blank")
			}
			dst := importInto(t, blob)
			if again := dst.StateBlob(); !bytes.Equal(again, blob) {
				t.Fatalf("imported array re-encodes to %d bytes, original blob %d", len(again), len(blob))
			}
			r := rng.New(33)
			for i, frac := range []float64{0.1, 0.5, 1} {
				in, act := sparseInput(r, stateRows, frac)
				noiseSeed := r.Uint64()
				assertBitwise(t, tc.name, readInto(t, src, in, act, noiseSeed, nil), readInto(t, dst, in, act, noiseSeed, nil))
				if i == 0 {
					src.BakeKernel()
					dst.BakeKernel()
				}
			}
		})
	}
}

// assertImportSafe imports a possibly damaged blob into a fresh array:
// a panic fails the test, and an accepted blob must re-encode to a fixed
// point — its re-encoding imports cleanly and encodes to itself.
func assertImportSafe(t *testing.T, data []byte) {
	t.Helper()
	c := freshStateArray()
	if err := c.ImportStateBlob(data); err != nil {
		return
	}
	once := c.StateBlob()
	if once == nil {
		return // the blob described a blank array
	}
	if twice := importInto(t, once).StateBlob(); !bytes.Equal(twice, once) {
		t.Fatalf("accepted blob re-encodes to %d bytes, then to %d different bytes", len(once), len(twice))
	}
}

// sparseStateArray builds an array programmed with a single weight, so
// its level planes travel in the sparse layout.
func sparseStateArray(t testing.TB) *Crossbar {
	c := New(stateRows, stateCols, device.DefaultParams(), Config{SpareRows: 4, SpareCols: 4}, nil)
	w := randWeights(rng.New(5), stateRows, stateCols, 0)
	w.Data()[7] = 0.5
	if err := c.Program(w, 1); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestImportStateBlobDamaged truncates blobs at every offset and flips
// every byte — a faulty array's (dense planes, every record kind) and a
// sparsely programmed one's (sparse planes): each result must be an
// error or a clean import, never a panic. Every truncation loses
// framing, so each must be an error.
func TestImportStateBlobDamaged(t *testing.T) {
	for _, blob := range [][]byte{faultyStateArray(t).StateBlob(), sparseStateArray(t).StateBlob()} {
		for n := range blob {
			if err := freshStateArray().ImportStateBlob(blob[:n]); err == nil {
				t.Fatalf("blob truncated to %d of %d bytes accepted", n, len(blob))
			}
		}
		flipped := make([]byte, len(blob))
		for i := range blob {
			copy(flipped, blob)
			flipped[i] ^= 0xff
			assertImportSafe(t, flipped)
		}
	}
}

// TestImportStateBlobBoundsSpareLists pins the spare free lists' bound:
// a list may hold at most the array's spare provisioning. The blob of
// an unprogrammed array ends with the two 4-entry spare lists (u32
// length, layout byte, one byte per entry) and the three u64 scalars.
func TestImportStateBlobBoundsSpareLists(t *testing.T) {
	c := freshStateArray()
	c.Tick(1)
	blob := c.StateBlob()
	tail := len(blob) - 3*8
	rowsAt := tail - 2*9
	splice := func(rows []byte) []byte {
		out := append([]byte(nil), blob[:rowsAt]...)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(rows)))
		out = append(out, 1)
		out = append(out, rows...)
		return append(out, blob[rowsAt+9:]...)
	}
	if err := freshStateArray().ImportStateBlob(splice([]byte{19, 18, 17, 16})); err != nil {
		t.Fatalf("reordered full spare list rejected: %v", err)
	}
	if err := freshStateArray().ImportStateBlob(splice([]byte{16, 17, 18, 19, 16})); err == nil {
		t.Fatal("spare list longer than the spare provisioning accepted")
	}
}

// FuzzImportStateBlob holds ImportStateBlob to "never panics on hostile
// input". The chip-image loader cannot reach it with damaged bytes — the
// image's checksum rejects them first — so the decoder is fuzzed here
// directly.
func FuzzImportStateBlob(f *testing.F) {
	f.Add([]byte(nil)) // a blank array's blob
	ticked := freshStateArray()
	ticked.Tick(1) // all planes nil, full spare lists
	f.Add(ticked.StateBlob())
	_, programmed := newTwin(21, stateRows, stateCols, kernelCfg())
	f.Add(programmed.StateBlob())
	f.Add(sparseStateArray(f).StateBlob())
	f.Add(faultyStateArray(f).StateBlob())
	old := programmed.StateBlob()
	old[0] = stateCodecVersion - 1 // a blob of the previous layout
	f.Add(old)
	f.Fuzz(assertImportSafe)
}

// TestImportStateBlobVersionAndEnergy pins the blob's version tag and
// its one counter: a blob tagged with another codec version is rejected
// before any field is read, and the programming energy survives the
// round trip bit for bit.
func TestImportStateBlobVersionAndEnergy(t *testing.T) {
	src := faultyStateArray(t)
	blob := src.StateBlob()
	if got, want := importInto(t, blob).Stats(), src.Stats(); got != want || want.ProgramEnergyFJ == 0 {
		t.Fatalf("imported stats %+v, want %+v (nonzero programming energy)", got, want)
	}
	old := append([]byte(nil), blob...)
	old[0] = stateCodecVersion - 1
	if err := freshStateArray().ImportStateBlob(old); err == nil {
		t.Fatal("blob of the previous codec version accepted")
	}
}
