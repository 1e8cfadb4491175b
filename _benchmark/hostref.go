package main

import (
	"math/bits"
	"runtime"
	"time"
)

// The shared host changes speed while the benchmark runs: alone on a
// 2-vCPU Xeon VM (go1.24, linux/amd64), refKernel takes 0.65 ms in one
// second and 1.25 ms in the next, as neighbours on the same cores come
// and go, and medians over a run cannot absorb that. The timings the
// benchmark takes one operation at a time — RunBatch and Session.Run
// with one session worker, the cold compile and the warm load — are
// therefore read against a reference: refKernel is fixed work that
// shares no code or memory with the simulator — a dense float
// matrix-vector product and a set-bit walk, the two shapes of the
// crossbar reads — timed in blocks interleaved with the workload's own
// operations. Each operation is divided by the slowdown of the block
// timed next after it, the block's median against refNominalMS: the
// host's speed moves within seconds, and a block next to the operation
// follows it closer than the run's median.
//
// The serve loops keep every vCPU busy at once and stay unscaled: a
// single-threaded reference timed between their segments did not
// follow them.

// refNominalMS is the scale: scaled timings read as on a host where
// refKernel takes this long.
const refNominalMS = 1.0

const (
	refN     = 256  // matrix side; a power of two
	refWords = 4096 // bit-walk words
	refReps  = 4
	// refBlock is how many samples follow one garbage collection.
	refBlock = 8
)

// refKernel is the reference work, its fixed operands and its samples.
type refKernel struct {
	w     []float64 // refN×refN, row-major
	x, y  []float64
	acc   []float64
	words []uint64
	sink  float64
	// samplesMS holds every sample; blockMS each block's median.
	samplesMS, blockMS []float64
}

func newRefKernel() *refKernel {
	k := &refKernel{
		w: make([]float64, refN*refN), x: make([]float64, refN), y: make([]float64, refN),
		acc: make([]float64, refN), words: make([]uint64, refWords),
	}
	s := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	unit := func() float64 { return float64(next()>>11)/(1<<53)*2 - 1 }
	for i := range k.w {
		k.w[i] = unit() / refN
	}
	for i := range k.x {
		k.x[i] = unit()
	}
	for i := range k.words {
		// A quarter of the bits set.
		k.words[i] = next() & next()
	}
	return k
}

// run does the fixed work once.
func (k *refKernel) run() {
	for rep := 0; rep < refReps; rep++ {
		for i := 0; i < refN; i++ {
			row := k.w[i*refN : (i+1)*refN]
			s := 0.0
			for j, v := range row {
				s += v * k.x[j]
			}
			k.y[i] = s
		}
		for wi, word := range k.words {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &= word - 1
				k.acc[(wi*64+b)&(refN-1)] += k.y[b]
			}
		}
	}
	k.sink += k.acc[0]
}

// sampleBlock collects the workload's garbage, so that no collection
// runs beside the kernel, then times refBlock runs of it.
func (k *refKernel) sampleBlock() {
	runtime.GC()
	first := len(k.samplesMS)
	for i := 0; i < refBlock; i++ {
		t0 := time.Now()
		k.run()
		k.samplesMS = append(k.samplesMS, ms(time.Since(t0)))
	}
	k.blockMS = append(k.blockMS, median(k.samplesMS[first:]))
}

// timing is one operation's wall time and how many reference blocks
// had been timed when it ended.
type timing struct {
	ms     float64
	blocks int
}

// stamp returns an operation's time against the blocks timed so far.
func (k *refKernel) stamp(ms float64) timing {
	return timing{ms: ms, blocks: len(k.blockMS)}
}

// slowdown is the median block's slowdown over the run (1 with none).
func (k *refKernel) slowdown() float64 {
	if len(k.blockMS) == 0 {
		return 1
	}
	return median(k.blockMS) / refNominalMS
}

// scaled divides each timing by the slowdown of the block timed next
// after it, or of the last block when none followed.
func (k *refKernel) scaled(ts []timing) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		slow := 1.0
		if n := len(k.blockMS); n > 0 {
			slow = k.blockMS[min(t.blocks, n-1)] / refNominalMS
		}
		out[i] = t.ms / slow
	}
	return out
}

// raw returns the unscaled times.
func raw(ts []timing) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = t.ms
	}
	return out
}
