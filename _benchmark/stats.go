package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/arch"
	"repro/internal/tensor"
)

// quantile returns the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// chunkedQuantile splits xs, in order, into chunks of n samples and
// returns the median over full chunks of each chunk's q-quantile (the
// plain q-quantile when there is no full chunk). A few host stalls then
// move one chunk's tail, not the reported one.
func chunkedQuantile(xs []float64, n int, q float64) float64 {
	if len(xs) < n {
		return quantile(xs, q)
	}
	var per []float64
	for i := 0; i+n <= len(xs); i += n {
		per = append(per, quantile(xs[i:i+n], q))
	}
	return median(per)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mallocs returns the cumulative heap allocation count (exact: it
// stops the world to flush per-P caches, so call it outside hot loops).
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// heapLive samples the live heap — what the last GC cycle left behind —
// during a phase. Unlike heap in use it does not depend on when
// collections happen to run, and its median over the phase does not
// depend on which GC cycle caught a batch mid-flight.
type heapLive struct {
	sample  []metrics.Sample
	samples []float64
}

func newHeapLive() *heapLive {
	return &heapLive{sample: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

func (h *heapLive) observe() {
	metrics.Read(h.sample)
	if v := h.sample[0].Value; v.Kind() == metrics.KindUint64 {
		h.samples = append(h.samples, float64(v.Uint64()))
	}
}

// mb is the median sample in MiB.
func (h *heapLive) mb() float64 {
	h.observe()
	return median(h.samples) / (1 << 20)
}

// evalSet accumulates the fixed evaluation prefix: accuracy, the output
// digest and the simulated counts. For a fixed seed all of it is
// identical run to run.
type evalSet struct {
	n, correct                           int
	cycles, spikes, macs, packed, repeat int64
	digest                               hash.Hash
}

func newEvalSet() *evalSet { return &evalSet{digest: sha256.New()} }

func (e *evalSet) add(res *arch.RunResult, label int) {
	e.n++
	if res.Prediction == label {
		e.correct++
	}
	e.cycles += res.Cycles
	e.spikes += res.Spikes
	e.macs += res.Crossbar.MACs
	e.packed += res.PackedWords
	e.repeat += res.RepeatReads
	var b [8]byte
	for _, v := range res.Output.Data() {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		e.digest.Write(b[:])
	}
	binary.LittleEndian.PutUint64(b[:], uint64(res.Prediction))
	e.digest.Write(b[:])
}

func (e *evalSet) accuracy() float64 {
	if e.n == 0 {
		return 0
	}
	return float64(e.correct) / float64(e.n)
}

func (e *evalSet) cyclesPerImg() float64 {
	if e.n == 0 {
		return 0
	}
	return float64(e.cycles) / float64(e.n)
}

func (e *evalSet) sum() string { return hex.EncodeToString(e.digest.Sum(nil)) }

// sameBits reports whether two outputs are bitwise identical.
func sameBits(a, b *tensor.Tensor) bool {
	ad, bd := a.Data(), b.Data()
	if len(ad) != len(bd) {
		return false
	}
	for i := range ad {
		if math.Float64bits(ad[i]) != math.Float64bits(bd[i]) {
			return false
		}
	}
	return true
}
