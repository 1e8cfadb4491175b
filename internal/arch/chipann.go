package arch

import (
	"context"
	"fmt"

	"repro/internal/convert"
	"repro/internal/snn"
	"repro/internal/tensor"
)

// annStageHW is the compiled hardware realization of one converted stage
// in ANN mode: multi-level drivers feed the continuous activations,
// saturating MTJ neurons clip at 1 (a full domain-wall traversal) — the
// morphable multi-modality of §IV-B4 exercised on identical crossbar
// contents.
type annStageHW struct {
	kind string
	// name is the converted layer's name, the key counter snapshots
	// carry.
	name string
	// core holds the programmed crossbars of a weighted stage.
	core *ANNCore
	// conv geometry (kind == "conv")
	kh, kw, stride, pad int
	groups, outC, gcIn  int
	// gather is the conv stage's receptive-field fetch table when the
	// compile fixed its input size (nil: each run state derives one for
	// the size it sees).
	gather *gatherTable
	// bias injected at the driver stage before thresholding.
	bias *tensor.Tensor
	// pool geometry (kind == "pool")
	poolK, poolStride int
	// output weights (kind == "output") — digitally applied at RUs.
	outW, outB *tensor.Tensor
}

// buildANNStages lowers the converted stages from index `from` onward
// onto programmed (and protected) ANN cores — the compile-time half of
// the legacy per-call RunANN path, in the same core/stream order.
func (ch *Chip) buildANNStages(c *convert.Converted, from int) ([]*annStageHW, error) {
	var stages []*annStageHW
	for _, st := range c.Stages[from:] {
		layer := c.SNN.Layers[st.SNNLayer]
		switch v := layer.(type) {
		case *snn.Conv:
			outC := v.W.Dim(0)
			kh, kw := v.W.Dim(2), v.W.Dim(3)
			gcIn := v.W.Dim(1)
			rf := gcIn * kh * kw
			if !FitsInCore(rf, outC) {
				return nil, fmt.Errorf("arch: stage %s does not fit one core", v.Name())
			}
			core := NewANNCore(ch.P, ch.coreCfg(), 1.0, ch.split())
			km := v.W.Reshape(outC, rf).Transpose()
			if err := ch.programANN(core, km); err != nil {
				return nil, err
			}
			if err := ch.prepare(core.ST); err != nil {
				return nil, err
			}
			stages = append(stages, &annStageHW{kind: "conv", name: v.Name(), core: core,
				kh: kh, kw: kw, stride: v.Stride, pad: v.Pad,
				groups: v.Groups, outC: outC, gcIn: gcIn, bias: v.B})
		case *snn.Dense:
			km := v.W.Transpose()
			if !FitsInCore(km.Dim(0), km.Dim(1)) {
				return nil, fmt.Errorf("arch: stage %s does not fit one core", v.Name())
			}
			core := NewANNCore(ch.P, ch.coreCfg(), 1.0, ch.split())
			if err := ch.programANN(core, km); err != nil {
				return nil, err
			}
			if err := ch.prepare(core.ST); err != nil {
				return nil, err
			}
			stages = append(stages, &annStageHW{kind: "dense", name: v.Name(), core: core, bias: v.B})
		case *snn.AvgPoolIF:
			stages = append(stages, &annStageHW{kind: "pool", name: v.Name(), poolK: v.K, poolStride: v.Stride})
		case *snn.Flatten:
			stages = append(stages, &annStageHW{kind: "flatten", name: v.Name()})
		case *snn.Output:
			stages = append(stages, &annStageHW{kind: "output", name: v.Name(), outW: v.W, outB: v.B})
		default:
			return nil, fmt.Errorf("arch: unsupported stage type %T", layer)
		}
	}
	return stages, nil
}

// RunANN executes one image through the same converted (normalized)
// network in ANN mode. Inputs are pixel intensities in [0, 1]; because
// the converted weights are normalized, every intermediate activation
// also lives in [0, 1].
//
// Deprecated: RunANN re-programs every core per call. Use Compile with
// WithMode(ModeANN) once, then Run/RunBatch per input; this shim is a
// Compile + one wear-mode Run.
func (ch *Chip) RunANN(c *convert.Converted, img *tensor.Tensor) (*RunResult, error) {
	sess, err := ch.Compile(c, WithMode(ModeANN), WithWear(true))
	if err != nil {
		return nil, err
	}
	//nebula:lint-ignore ctxflow deprecated shim has no ctx to thread; callers wanting deadlines use Compile+Run
	return sess.Run(context.Background(), img)
}
