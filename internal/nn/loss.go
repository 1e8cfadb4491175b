package nn

import (
	"math"

	"repro/internal/tensor"
)

// SoftmaxCrossEntropy computes the mean softmax cross-entropy loss over a
// batch of logits (N×K) against integer labels, and the gradient of the
// loss with respect to the logits.
func SoftmaxCrossEntropy(logits *tensor.Tensor, labels []int) (loss float64, grad *tensor.Tensor) {
	n, k := logits.Dim(0), logits.Dim(1)
	if len(labels) != n {
		panic("nn: label count does not match batch size")
	}
	grad = tensor.New(n, k)
	total := 0.0
	for i := 0; i < n; i++ {
		row := logits.Row(i).Data()
		grow := grad.Row(i).Data()
		// log-sum-exp with max subtraction for stability
		m := row[0]
		for _, v := range row[1:] {
			if v > m {
				m = v
			}
		}
		sum := 0.0
		for _, v := range row {
			sum += math.Exp(v - m)
		}
		logZ := m + math.Log(sum)
		y := labels[i]
		total += logZ - row[y]
		invN := 1.0 / float64(n)
		for j, v := range row {
			p := math.Exp(v - logZ)
			grow[j] = p * invN
		}
		grow[y] -= invN
	}
	return total / float64(n), grad
}
