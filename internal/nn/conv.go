package nn

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution layer with optional channel groups. Groups
// equal to the input channel count gives the depthwise convolution used by
// MobileNet's depthwise-separable blocks; groups of 1 gives a dense
// convolution.
type Conv2D struct {
	name                string
	InC, OutC           int
	KH, KW, Stride, Pad int
	Groups              int
	Weight              *Param // (OutC, InC/Groups, KH, KW)
	Bias                *Param // (OutC)

	lastInput *tensor.Tensor
	lastCols  [][]*tensor.Tensor // per-sample, per-group column matrices
}

// NewConv2D constructs a convolution layer with He-initialized weights.
func NewConv2D(name string, inC, outC, kh, kw, stride, pad, groups int, r *rng.Rand) *Conv2D {
	if groups < 1 || inC%groups != 0 || outC%groups != 0 {
		panic(fmt.Sprintf("nn: invalid groups %d for conv %d→%d", groups, inC, outC))
	}
	w := tensor.New(outC, inC/groups, kh, kw)
	HeInit(w, inC/groups*kh*kw, r)
	b := tensor.New(outC)
	return &Conv2D{
		name: name, InC: inC, OutC: outC, KH: kh, KW: kw,
		Stride: stride, Pad: pad, Groups: groups,
		Weight: NewParam(name+".weight", w),
		Bias:   NewParam(name+".bias", b),
	}
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.name }

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.Weight, c.Bias} }

// OutShape implements Shaper.
func (c *Conv2D) OutShape(in []int) []int {
	if len(in) != 3 {
		panic(fmt.Sprintf("nn: %s expects C×H×W input shape, got %v", c.name, in))
	}
	oh := tensor.ConvOutSize(in[1], c.KH, c.Stride, c.Pad)
	ow := tensor.ConvOutSize(in[2], c.KW, c.Stride, c.Pad)
	return []int{c.OutC, oh, ow}
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	if x.NDim() != 4 || x.Dim(1) != c.InC {
		panic(fmt.Sprintf("nn: %s got input %v, want N×%d×H×W", c.name, x.Shape(), c.InC))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh := tensor.ConvOutSize(h, c.KH, c.Stride, c.Pad)
	ow := tensor.ConvOutSize(w, c.KW, c.Stride, c.Pad)
	out := tensor.New(n, c.OutC, oh, ow)

	gcIn := c.InC / c.Groups
	gcOut := c.OutC / c.Groups
	// Weight viewed per group as gcOut × (gcIn*KH*KW).
	wFlat := c.Weight.Value.Reshape(c.OutC, gcIn*c.KH*c.KW)

	c.lastInput = x
	c.lastCols = make([][]*tensor.Tensor, n)
	for i := 0; i < n; i++ {
		img := x.Slice4D(i)
		c.lastCols[i] = make([]*tensor.Tensor, c.Groups)
		for g := 0; g < c.Groups; g++ {
			sub := groupChannels(img, g*gcIn, gcIn)
			cols := tensor.Im2Col(sub, c.KH, c.KW, c.Stride, c.Pad)
			c.lastCols[i][g] = cols
			wg := sliceRows(wFlat, g*gcOut, gcOut)
			res := tensor.MatMul(wg, cols) // gcOut × (oh*ow)
			dst := out.Slice4D(i)
			for oc := 0; oc < gcOut; oc++ {
				bias := c.Bias.Value.Data()[g*gcOut+oc]
				srcRow := res.Row(oc).Data()
				dstBase := (g*gcOut + oc) * oh * ow
				dd := dst.Data()
				for j, v := range srcRow {
					dd[dstBase+j] = v + bias
				}
			}
		}
	}
	return out
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	x := c.lastInput
	if x == nil {
		panic("nn: Conv2D.Backward before Forward")
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh := grad.Dim(2)
	ow := grad.Dim(3)
	gcIn := c.InC / c.Groups
	gcOut := c.OutC / c.Groups
	wFlat := c.Weight.Value.Reshape(c.OutC, gcIn*c.KH*c.KW)
	gwFlat := c.Weight.Grad.Reshape(c.OutC, gcIn*c.KH*c.KW)
	dx := tensor.New(x.Shape()...)

	for i := 0; i < n; i++ {
		gradImg := grad.Slice4D(i)
		dxImg := dx.Slice4D(i)
		for g := 0; g < c.Groups; g++ {
			// Gradient rows for this group: gcOut × (oh*ow).
			gy := tensor.New(gcOut, oh*ow)
			for oc := 0; oc < gcOut; oc++ {
				src := gradImg.Data()[(g*gcOut+oc)*oh*ow : (g*gcOut+oc+1)*oh*ow]
				copy(gy.Row(oc).Data(), src)
				// Bias gradient: sum over spatial positions.
				s := 0.0
				for _, v := range src {
					s += v
				}
				c.Bias.Grad.Data()[g*gcOut+oc] += s
			}
			cols := c.lastCols[i][g]
			// dW += gy · colsᵀ
			dwg := tensor.MatMulTransB(gy, cols) // gcOut × (gcIn*KH*KW)
			for oc := 0; oc < gcOut; oc++ {
				dst := gwFlat.Row(g*gcOut + oc).Data()
				src := dwg.Row(oc).Data()
				for j, v := range src {
					dst[j] += v
				}
			}
			// dCols = Wᵀ · gy, then fold back to the input image.
			wg := sliceRows(wFlat, g*gcOut, gcOut)
			dcols := tensor.MatMulTransA(wg, gy) // (gcIn*KH*KW) × (oh*ow)
			dimg := tensor.Col2Im(dcols, gcIn, h, w, c.KH, c.KW, c.Stride, c.Pad)
			copyIntoChannels(dxImg, dimg, g*gcIn)
		}
	}
	return dx
}

// groupChannels returns channels [start, start+count) of a C×H×W tensor as
// a view (the channels are contiguous in NCHW layout).
func groupChannels(img *tensor.Tensor, start, count int) *tensor.Tensor {
	h, w := img.Dim(1), img.Dim(2)
	sz := h * w
	return tensor.FromSlice(img.Data()[start*sz:(start+count)*sz], count, h, w)
}

// sliceRows returns rows [start, start+count) of a 2-D tensor as a view.
func sliceRows(m *tensor.Tensor, start, count int) *tensor.Tensor {
	cols := m.Dim(1)
	return tensor.FromSlice(m.Data()[start*cols:(start+count)*cols], count, cols)
}

// copyIntoChannels adds src (c×H×W) into dst starting at channel offset.
func copyIntoChannels(dst, src *tensor.Tensor, offset int) {
	h, w := src.Dim(1), src.Dim(2)
	sz := h * w
	dd := dst.Data()
	sd := src.Data()
	base := offset * sz
	for i, v := range sd {
		dd[base+i] += v
	}
}
