package nn

import "waitornot/internal/tensor"

// SGD is stochastic gradient descent with classical momentum and L2
// weight decay. The zero value is unusable; use NewSGD.
type SGD struct {
	// LR is the learning rate.
	LR float64
	// Momentum in [0,1); 0 disables the velocity term.
	Momentum float64
	// WeightDecay is the L2 coefficient applied to weights each step.
	WeightDecay float64

	velocity [][]float32
}

// NewSGD builds an optimizer.
func NewSGD(lr, momentum, weightDecay float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay}
}

// Step applies one update to params given grads (aligned slices, as
// returned by Model.Params and Model.Grads) and zeroes the gradients.
func (s *SGD) Step(params, grads []*tensor.Dense) {
	if len(s.velocity) != len(params) {
		s.velocity = make([][]float32, len(params))
		for i, p := range params {
			s.velocity[i] = make([]float32, len(p.Data))
		}
	}
	lr := float32(s.LR)
	mu := float32(s.Momentum)
	wd := float32(s.WeightDecay)
	for i, p := range params {
		tensor.MomentumStep(lr, mu, wd, p.Data, grads[i].Data, s.velocity[i])
	}
}

// Reset clears momentum state (used when a client adopts a new
// aggregated model between rounds). The velocity buffers are zeroed in
// place so a long-lived optimizer does not reallocate every round.
func (s *SGD) Reset() {
	for _, v := range s.velocity {
		for j := range v {
			v[j] = 0
		}
	}
}
