// Package tensor implements a small dense n-dimensional array library used
// by the neural-network, SNN and quantization layers of the NEBULA
// simulator.
//
// Tensors are float64, row-major, and carry an explicit shape. Convolutional
// data uses NCHW layout throughout the repository. The package deliberately
// implements only the operations the simulator needs — elementwise
// arithmetic, matrix multiplication, im2col/col2im and pooling — rather than
// a general BLAS.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense, row-major n-dimensional array of float64 values.
type Tensor struct {
	shape []int
	data  []float64
}

// New allocates a zero-filled tensor with the given shape. A scalar is
// represented by an empty shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: make([]float64, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); its length must equal the shape's element count.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), shape))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: data}
}

// Shape returns the tensor's shape. The returned slice must not be mutated.
func (t *Tensor) Shape() []int { return t.shape }

// Data returns the backing slice. Mutations are visible to the tensor.
func (t *Tensor) Data() []float64 { return t.data }

// Size returns the total element count.
func (t *Tensor) Size() int { return len(t.data) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// NDim returns the number of dimensions.
func (t *Tensor) NDim() int { return len(t.shape) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a view over the same data with a new shape. The element
// count must match. One dimension may be -1 and is inferred.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	infer := -1
	n := 1
	for i, d := range shape {
		if d == -1 {
			if infer != -1 {
				panic("tensor: more than one inferred dimension")
			}
			infer = i
		} else {
			n *= d
		}
	}
	s := make([]int, len(shape))
	copy(s, shape)
	if infer >= 0 {
		if n == 0 || len(t.data)%n != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension reshaping %v to %v", t.shape, shape))
		}
		s[infer] = len(t.data) / n
		n *= s[infer]
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v", t.shape, len(t.data), shape))
	}
	return &Tensor{shape: s, data: t.data}
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 {
	return t.data[t.offset(idx)]
}

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) {
	t.data[t.offset(idx)] = v
}

// offset flattens a multi-index. The panics format a copy of idx: boxing
// the caller's variadic slice itself would make escape analysis move it
// to the heap at every At/Set call site.
func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %v does not match shape %v", append([]int(nil), idx...), t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", append([]int(nil), idx...), t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Fill sets every element to v and returns the tensor.
func (t *Tensor) Fill(v float64) *Tensor {
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// AddInPlace adds other elementwise; shapes must match exactly.
func (t *Tensor) AddInPlace(other *Tensor) *Tensor {
	t.assertSameShape(other)
	for i, v := range other.data {
		t.data[i] += v
	}
	return t
}

// ScaleInPlace multiplies every element by s.
func (t *Tensor) ScaleInPlace(s float64) *Tensor {
	for i := range t.data {
		t.data[i] *= s
	}
	return t
}

func (t *Tensor) assertSameShape(other *Tensor) {
	if !SameShape(t, other) {
		panic(fmt.Sprintf("tensor: shape mismatch %v vs %v", t.shape, other.shape))
	}
}

// SameShape reports whether a and b have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.shape) != len(b.shape) {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	return true
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty tensors).
func (t *Tensor) Mean() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.data))
}

// AbsMax returns max |x| over all elements (0 for empty tensors).
func (t *Tensor) AbsMax() float64 {
	m := 0.0
	for _, v := range t.data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// ArgMax returns the flat index of the maximum element.
func (t *Tensor) ArgMax() int {
	if len(t.data) == 0 {
		panic("tensor: ArgMax of empty tensor")
	}
	bestIdx := 0
	bestVal := t.data[0]
	for i, v := range t.data {
		if v > bestVal {
			bestVal = v
			bestIdx = i
		}
	}
	return bestIdx
}

// MatMul multiplies a (m×k) by b (k×n) and returns an m×n tensor.
func MatMul(a, b *Tensor) *Tensor {
	if a.NDim() != 2 || b.NDim() != 2 {
		panic("tensor: MatMul requires 2-D operands")
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimensions differ: %v × %v", a.shape, b.shape))
	}
	out := New(m, n)
	// ikj loop order for cache-friendly access to b and out rows.
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		orow := out.data[i*n : (i+1)*n]
		for kk := 0; kk < k; kk++ {
			av := arow[kk]
			if av == 0 {
				continue
			}
			brow := b.data[kk*n : (kk+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MatMulTransB multiplies a (m×k) by bᵀ where b is n×k, returning m×n.
func MatMulTransB(a, b *Tensor) *Tensor {
	if a.NDim() != 2 || b.NDim() != 2 {
		panic("tensor: MatMulTransB requires 2-D operands")
	}
	out := New(a.shape[0], b.shape[0])
	MatMulTransBInto(out, a, b)
	return out
}

// MatMulTransBInto is MatMulTransB writing into a caller-provided m×n
// destination, so per-timestep callers reuse one accumulator buffer.
// Every element of out is assigned.
//
//nebula:hotpath
func MatMulTransBInto(out, a, b *Tensor) {
	if a.NDim() != 2 || b.NDim() != 2 {
		panic("tensor: MatMulTransB requires 2-D operands")
	}
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dimensions differ: %v × %vᵀ", a.shape, b.shape))
	}
	if out.NDim() != 2 || out.shape[0] != m || out.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransB destination %v, want [%d %d]", out.shape, m, n))
	}
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		orow := out.data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b.data[j*k : (j+1)*k]
			s := 0.0
			for kk, av := range arow {
				s += av * brow[kk]
			}
			orow[j] = s
		}
	}
}

// MatMulTransA multiplies aᵀ (where a is k×m) by b (k×n), returning m×n.
func MatMulTransA(a, b *Tensor) *Tensor {
	if a.NDim() != 2 || b.NDim() != 2 {
		panic("tensor: MatMulTransA requires 2-D operands")
	}
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransA inner dimensions differ: %vᵀ × %v", a.shape, b.shape))
	}
	out := New(m, n)
	for kk := 0; kk < k; kk++ {
		arow := a.data[kk*m : (kk+1)*m]
		brow := b.data[kk*n : (kk+1)*n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.data[i*n : (i+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// Transpose returns a new tensor that is the transpose of a 2-D tensor.
func (t *Tensor) Transpose() *Tensor {
	if t.NDim() != 2 {
		panic("tensor: Transpose requires a 2-D tensor")
	}
	m, n := t.shape[0], t.shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.data[j*m+i] = t.data[i*n+j]
		}
	}
	return out
}

// ConvOutSize returns the output spatial size for a convolution with the
// given input size, kernel, stride and padding.
func ConvOutSize(in, kernel, stride, pad int) int {
	return (in+2*pad-kernel)/stride + 1
}

// Im2Col unfolds a single image (C×H×W) into a matrix of shape
// (C*KH*KW) × (OH*OW) so that convolution becomes a matrix multiply.
// Padding positions read as zero.
func Im2Col(img *Tensor, kh, kw, stride, pad int) *Tensor {
	if img.NDim() != 3 {
		panic("tensor: Im2Col requires a C×H×W tensor")
	}
	c, h, w := img.shape[0], img.shape[1], img.shape[2]
	oh := ConvOutSize(h, kh, stride, pad)
	ow := ConvOutSize(w, kw, stride, pad)
	out := New(c*kh*kw, oh*ow)
	Im2ColInto(out, img, kh, kw, stride, pad)
	return out
}

// Im2ColInto is Im2Col writing into a caller-provided
// (C*KH*KW) × (OH*OW) destination, so per-timestep convolution unfolds
// reuse one buffer. The destination is zeroed first (padding positions
// must read as zero).
//
//nebula:hotpath
func Im2ColInto(out, img *Tensor, kh, kw, stride, pad int) {
	if img.NDim() != 3 {
		panic("tensor: Im2Col requires a C×H×W tensor")
	}
	c, h, w := img.shape[0], img.shape[1], img.shape[2]
	oh := ConvOutSize(h, kh, stride, pad)
	ow := ConvOutSize(w, kw, stride, pad)
	if out.NDim() != 2 || out.shape[0] != c*kh*kw || out.shape[1] != oh*ow {
		panic(fmt.Sprintf("tensor: Im2Col destination %v, want [%d %d]", out.shape, c*kh*kw, oh*ow))
	}
	for i := range out.data {
		out.data[i] = 0
	}
	for ch := 0; ch < c; ch++ {
		chBase := ch * h * w
		for ki := 0; ki < kh; ki++ {
			for kj := 0; kj < kw; kj++ {
				row := ((ch*kh)+ki)*kw + kj
				rowBase := row * oh * ow
				for oi := 0; oi < oh; oi++ {
					ii := oi*stride + ki - pad
					if ii < 0 || ii >= h {
						continue
					}
					srcBase := chBase + ii*w
					dstBase := rowBase + oi*ow
					for oj := 0; oj < ow; oj++ {
						jj := oj*stride + kj - pad
						if jj < 0 || jj >= w {
							continue
						}
						out.data[dstBase+oj] = img.data[srcBase+jj]
					}
				}
			}
		}
	}
}

// Col2Im folds a (C*KH*KW) × (OH*OW) column matrix back into a C×H×W
// image, accumulating overlapping contributions. It is the adjoint of
// Im2Col and is used for convolution backward passes.
func Col2Im(cols *Tensor, c, h, w, kh, kw, stride, pad int) *Tensor {
	oh := ConvOutSize(h, kh, stride, pad)
	ow := ConvOutSize(w, kw, stride, pad)
	if cols.NDim() != 2 || cols.shape[0] != c*kh*kw || cols.shape[1] != oh*ow {
		panic(fmt.Sprintf("tensor: Col2Im shape %v incompatible with c=%d h=%d w=%d k=%dx%d", cols.shape, c, h, w, kh, kw))
	}
	img := New(c, h, w)
	for ch := 0; ch < c; ch++ {
		chBase := ch * h * w
		for ki := 0; ki < kh; ki++ {
			for kj := 0; kj < kw; kj++ {
				row := ((ch*kh)+ki)*kw + kj
				rowBase := row * oh * ow
				for oi := 0; oi < oh; oi++ {
					ii := oi*stride + ki - pad
					if ii < 0 || ii >= h {
						continue
					}
					dstBase := chBase + ii*w
					srcBase := rowBase + oi*ow
					for oj := 0; oj < ow; oj++ {
						jj := oj*stride + kj - pad
						if jj < 0 || jj >= w {
							continue
						}
						img.data[dstBase+jj] += cols.data[srcBase+oj]
					}
				}
			}
		}
	}
	return img
}

// Slice4D returns the i-th item of a 4-D NCHW tensor as a C×H×W view
// sharing the underlying data.
func (t *Tensor) Slice4D(i int) *Tensor {
	if t.NDim() != 4 {
		panic("tensor: Slice4D requires a 4-D tensor")
	}
	n, c, h, w := t.shape[0], t.shape[1], t.shape[2], t.shape[3]
	if i < 0 || i >= n {
		panic(fmt.Sprintf("tensor: Slice4D index %d out of %d", i, n))
	}
	sz := c * h * w
	return &Tensor{shape: []int{c, h, w}, data: t.data[i*sz : (i+1)*sz]}
}

// Row returns row i of a 2-D tensor as a view.
func (t *Tensor) Row(i int) *Tensor {
	if t.NDim() != 2 {
		panic("tensor: Row requires a 2-D tensor")
	}
	n := t.shape[1]
	return &Tensor{shape: []int{n}, data: t.data[i*n : (i+1)*n]}
}

// String renders small tensors for debugging.
func (t *Tensor) String() string {
	if len(t.data) > 64 {
		return fmt.Sprintf("Tensor%v{...%d elems, mean=%.4g}", t.shape, len(t.data), t.Mean())
	}
	return fmt.Sprintf("Tensor%v%v", t.shape, t.data)
}
