package nn

import (
	"fmt"
	"math"

	"waitornot/internal/tensor"
)

var (
	sqrt2 = math.Sqrt2
)

func sqrtf(v float64) float64 { return math.Sqrt(v) }

// SoftmaxCrossEntropy computes the mean cross-entropy loss of logits
// (one row per sample) against integer labels, and the gradient
// dLoss/dLogits, averaged over the batch. The softmax is computed in a
// numerically stable way (max subtraction).
func SoftmaxCrossEntropy(logits *tensor.Dense, labels []int) (float64, *tensor.Dense) {
	if logits.Rows != len(labels) {
		panic(fmt.Sprintf("nn: %d logit rows vs %d labels", logits.Rows, len(labels)))
	}
	n, c := logits.Rows, logits.Cols
	grad := tensor.New(n, c)
	var totalLoss float64
	invN := float32(1.0 / float64(n))
	for i := 0; i < n; i++ {
		row := logits.Row(i)
		label := labels[i]
		if label < 0 || label >= c {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", label, c))
		}
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		g := grad.Row(i)
		for j, v := range row {
			e := math.Exp(float64(v - maxV))
			g[j] = float32(e)
			sum += e
		}
		logSum := math.Log(sum)
		totalLoss += logSum - float64(row[label]-maxV)
		inv := float32(1.0 / sum)
		for j := range g {
			g[j] *= inv * invN
		}
		g[label] -= invN
	}
	return totalLoss / float64(n), grad
}
