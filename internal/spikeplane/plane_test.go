package spikeplane

import (
	"math/rand"
	"testing"
)

// refLens covers the word-boundary cases the packed representation
// must get right: empty, single bit, one-below/at/above a word edge,
// and multi-word lengths.
var refLens = []int{0, 1, 7, 63, 64, 65, 127, 128, 129, 200, 256, 300}

// refDensities includes the degenerate all-zero and all-one planes.
var refDensities = []float64{0, 0.01, 0.1, 0.5, 0.9, 1}

func densePlane(r *rand.Rand, n int, density float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		if r.Float64() < density {
			v[i] = 1
		}
	}
	return v
}

func refIndices(v []float64) []int {
	var idx []int
	for i, x := range v {
		if x != 0 {
			idx = append(idx, i)
		}
	}
	return idx
}

func TestPlaneMatchesDenseReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var p Plane
	for _, n := range refLens {
		for _, d := range refDensities {
			v := densePlane(r, n, d)
			p.Pack(v)
			want := refIndices(v)

			if got := p.Len(); got != n {
				t.Fatalf("n=%d d=%g: Len=%d", n, d, got)
			}
			if got := p.Count(); got != len(want) {
				t.Fatalf("n=%d d=%g: Count=%d want %d", n, d, got, len(want))
			}
			if got := p.IsZero(); got != (len(want) == 0) {
				t.Fatalf("n=%d d=%g: IsZero=%v with %d spikes", n, d, got, len(want))
			}
			if !p.Binary() {
				t.Fatalf("n=%d d=%g: all-ones plane not reported binary", n, d)
			}

			// Iterator agrees with the dense scan, in order.
			it := p.Iter()
			for k, wi := range want {
				gi, ok := it.Next()
				if !ok || gi != wi {
					t.Fatalf("n=%d d=%g: iter step %d got (%d,%v) want %d", n, d, k, gi, ok, wi)
				}
			}
			if gi, ok := it.Next(); ok {
				t.Fatalf("n=%d d=%g: iter yielded extra index %d", n, d, gi)
			}

			// AppendIndices agrees, including capacity reuse.
			buf := make([]int, 0, 4)
			got := p.AppendIndices(buf[:0])
			if len(got) != len(want) {
				t.Fatalf("n=%d d=%g: AppendIndices len %d want %d", n, d, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d d=%g: AppendIndices[%d]=%d want %d", n, d, i, got[i], want[i])
				}
			}
		}
	}
}

func TestPlaneGradedValues(t *testing.T) {
	var p Plane
	p.Pack([]float64{0, 0.5, 0, -2, 1})
	if p.Binary() {
		t.Fatal("graded plane reported binary")
	}
	if got := p.Count(); got != 3 {
		t.Fatalf("Count=%d want 3", got)
	}
	want := []int{1, 3, 4}
	got := p.AppendIndices(nil)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("index %d: got %d want %d", i, got[i], want[i])
		}
	}

	p.Reset(8)
	p.Set(2)
	if !p.Binary() {
		t.Fatal("Reset should restore binary")
	}
	p.MarkGraded()
	if p.Binary() {
		t.Fatal("MarkGraded ignored")
	}
}

func TestPlaneEqualAndCopy(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var a, b, c Plane
	v := densePlane(r, 129, 0.3)
	a.Pack(v)
	b.Pack(v)
	if !a.EqualWords(&b) {
		t.Fatal("identical packs not equal")
	}
	v2 := append([]float64(nil), v...)
	// Flip one bit.
	if v2[70] == 0 {
		v2[70] = 1
	} else {
		v2[70] = 0
	}
	b.Pack(v2)
	if a.EqualWords(&b) {
		t.Fatal("differing planes reported equal")
	}
	b.Pack(v[:128])
	if a.EqualWords(&b) {
		t.Fatal("planes of different length reported equal")
	}

	c.CopyFrom(&a)
	if !c.EqualWords(&a) || c.Binary() != a.Binary() || c.Len() != a.Len() {
		t.Fatal("CopyFrom not a faithful copy")
	}
}

func TestWindow(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	v := densePlane(r, 300, 0.35)
	var p Plane
	p.Pack(v)
	var buf []uint64
	cases := [][2]int{
		{0, 300}, {0, 64}, {64, 128}, {128, 300}, {0, 1},
		{1, 65}, {63, 127}, {65, 300}, {37, 41}, {100, 100},
		{250, 300}, {5, 6},
	}
	for _, c := range cases {
		lo, hi := c[0], c[1]
		w := Window(p.WordSlice(), lo, hi, buf)
		if lo&63 != 0 {
			buf = w // recycled shift buffer
		}
		// Reference: indices of nonzero v in [lo,hi), rebased.
		var want []int
		for i := lo; i < hi; i++ {
			if v[i] != 0 {
				want = append(want, i-lo)
			}
		}
		it := Iter{words: w}
		k := 0
		for {
			gi, ok := it.Next()
			if !ok {
				break
			}
			// Aligned views may expose bits past hi inside the
			// final word; ignore them like callers do.
			if gi >= hi-lo {
				if lo&63 == 0 {
					break
				}
				t.Fatalf("[%d,%d): shifted window leaked bit %d past end", lo, hi, gi)
			}
			if k >= len(want) || gi != want[k] {
				t.Fatalf("[%d,%d): window index %d got %d", lo, hi, k, gi)
			}
			k++
		}
		if k != len(want) {
			t.Fatalf("[%d,%d): window yielded %d indices want %d", lo, hi, k, len(want))
		}
	}
}

// TestBitsOrBits moves random runs of 1–64 bits between random offsets
// of two planes with Bits and OrBits, and checks both planes against a
// per-bit reference: Bits returns exactly the run, OrBits sets exactly
// the run's set bits and leaves every other bit alone.
func TestBitsOrBits(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	var src, dst Plane
	for trial := 0; trial < 2000; trial++ {
		sv := densePlane(r, 300, r.Float64())
		dv := densePlane(r, 300, 0.2)
		src.Pack(sv)
		dst.Pack(dv)
		n := 1 + r.Intn(WordBits)
		i, j := r.Intn(300-n+1), r.Intn(300-n+1)
		v := Bits(src.WordSlice(), i, n)
		for b := 0; b < WordBits; b++ {
			want := b < n && sv[i+b] != 0
			if got := v>>uint(b)&1 == 1; got != want {
				t.Fatalf("Bits(%d, %d) bit %d: %v, want %v", i, n, b, got, want)
			}
		}
		dst.OrBits(j, v, n)
		for b := j; b < j+n; b++ {
			if sv[i+b-j] != 0 {
				dv[b] = 1
			}
		}
		var want Plane
		want.Pack(dv)
		if !dst.EqualWords(&want) {
			t.Fatalf("OrBits(%d, %x, %d): %x, want %x", j, v, n, dst.WordSlice(), want.WordSlice())
		}
	}
}

func TestWordsHelper(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 63: 1, 64: 1, 65: 2, 128: 2, 129: 3}
	for n, want := range cases {
		if got := Words(n); got != want {
			t.Fatalf("Words(%d)=%d want %d", n, got, want)
		}
	}
}

func TestPlaneResetReusesBacking(t *testing.T) {
	var p Plane
	p.Pack(densePlane(rand.New(rand.NewSource(19)), 256, 0.5))
	w0 := &p.words[0]
	p.Reset(200)
	if &p.words[0] != w0 {
		t.Fatal("Reset to smaller length reallocated backing array")
	}
	if !p.IsZero() {
		t.Fatal("Reset left bits set")
	}
}
