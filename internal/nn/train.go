package nn

import (
	"fmt"

	"waitornot/internal/tensor"
	"waitornot/internal/xrand"
)

// EpochScratch holds the shuffling and minibatch buffers an epoch
// needs, so callers that train every round reuse them instead of
// reallocating per epoch. The zero value is ready to use.
type EpochScratch struct {
	perm   []int
	batchX *tensor.Dense
	batchY []int
}

func (s *EpochScratch) ready(n, batchSize, cols int) {
	s.perm = resize(s.perm, n)
	buffer(&s.batchX, batchSize, cols)
	s.batchY = resize(s.batchY, batchSize)
}

// TrainEpochScratch runs one epoch of minibatch SGD over (xs, ys),
// shuffling with rng, and returns the mean loss. xs has one sample per
// row; ys are integer labels aligned with xs rows. The scratch buffers
// are the caller's: any scratch, fresh or reused, gives bit-identical
// results.
func TrainEpochScratch(m *Model, opt *SGD, xs *tensor.Dense, ys []int, batchSize int, rng *xrand.RNG, scratch *EpochScratch) float64 {
	n := xs.Rows
	if n != len(ys) {
		panic(fmt.Sprintf("nn: %d samples vs %d labels", n, len(ys)))
	}
	if batchSize <= 0 {
		panic("nn: non-positive batch size")
	}
	scratch.ready(n, batchSize, xs.Cols)
	perm := scratch.perm
	rng.PermInto(perm)
	batchX := scratch.batchX
	batchY := scratch.batchY
	var totalLoss float64
	batches := 0
	for start := 0; start+batchSize <= n; start += batchSize {
		for bi := 0; bi < batchSize; bi++ {
			src := perm[start+bi]
			copy(batchX.Row(bi), xs.Row(src))
			batchY[bi] = ys[src]
		}
		logits := m.Forward(batchX)
		loss, grad := SoftmaxCrossEntropy(logits, batchY)
		m.Backward(grad)
		opt.Step(m.Params(), m.Grads())
		totalLoss += loss
		batches++
	}
	if batches == 0 {
		return 0
	}
	return totalLoss / float64(batches)
}

// Evaluate returns classification accuracy of m over (xs, ys), streaming
// in batches of batchSize to bound memory.
func Evaluate(m *Model, xs *tensor.Dense, ys []int, batchSize int) float64 {
	n := xs.Rows
	if n == 0 {
		return 0
	}
	if batchSize <= 0 || batchSize > n {
		batchSize = n
	}
	// One view header serves every batch: the layers keep their input
	// for backward, so each fresh header would escape.
	correct, view := 0, &tensor.Dense{Cols: xs.Cols}
	for start := 0; start < n; start += batchSize {
		end := min(start+batchSize, n)
		view.Rows, view.Data = end-start, xs.Data[start*xs.Cols:end*xs.Cols]
		logits := m.Forward(view)
		for i := range view.Rows {
			if argmax(logits.Row(i)) == ys[start+i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(n)
}
