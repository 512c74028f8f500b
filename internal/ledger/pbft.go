package ledger

import (
	"fmt"
	"math"

	"waitornot/internal/chain"
	"waitornot/internal/contract"
	"waitornot/internal/ledger/latmodel"
	"waitornot/internal/nn"
)

// pbft model parameters: the committee defaults to the smallest
// fault-tolerant PBFT group, payload serialization matches the
// arrival model's ~100 Mbit/s default, and each carried model update
// costs a fixed verification slice before the primary proposes.
const (
	pbftDefaultValidators = 4
	pbftPerKBMs           = 0.08
	pbftVerifyMsPerUpdate = 5
	// pbftVerifyMargin is the model-verification rejection threshold:
	// a submission is rejected when its score (accuracy on the
	// consortium's validation set, via Config.Verify) falls more than
	// this below the best of the batch and the committed model — the
	// paper's abnormal-model margin, enforced at the ledger.
	pbftVerifyMargin = 0.15
)

// pbftBackend is the consortium substrate: the sealing core (sealer.go
// — real blocks, execution under the block rule, no puzzle) with two
// PBFT-specific behaviours on top.
//
// First, CommitLatencyMs comes from an explicit analytic model
// (internal/ledger/latmodel) instead of a hand-waved constant: three
// quorum-barriered phases of O(n²) messages over latmodel's default
// per-hop delay distribution, per "Latency Analysis of Consortium Blockchained
// Federated Learning" (Ren & Yan 2021). latmodel's
// TestPBFTCalibrationGolden pins the model against an event-level
// simulation of the same protocol.
//
// Second, model verification: before proposing, the validators score
// every submitted model update on the consortium's validation set
// (Config.Verify) and reject any scoring more than a fixed margin
// below the best of the batch and the committed model (the unweighted
// mean of the last accepted batch), as in Ren & Yan. A rejected submission
// still commits as a transaction — nonces advance, the audit trail
// stays — but its contract effect is suppressed, so the update never
// enters any peer's aggregation batch. Rejections surface on the
// Commit. Verification is a pure function of (batch, committed model),
// so every validator reaches the same verdict and execution stays
// deterministic.
type pbftBackend struct {
	*sealer
	validators int
	vproc      *verifyingProc
	refScore   float64 // committed model's validation score (NaN until a batch commits)
}

// verifyingProc wraps the contract VM with the round's verification
// verdicts: a rejected submission executes as a no-op (intrinsic gas
// only, nonce advances, no contract effect), everything else passes
// through.
type verifyingProc struct {
	inner  chain.Processor
	reject map[chain.Hash]bool
}

func (p *verifyingProc) Execute(tx *chain.Transaction, st *chain.State) (uint64, []chain.Log, error) {
	if p.reject[tx.Hash()] {
		return 0, nil, nil
	}
	return p.inner.Execute(tx, st)
}

func newPBFT(cfg Config) (*pbftBackend, error) {
	validators := cfg.Validators
	if validators == 0 {
		validators = pbftDefaultValidators
	}
	baseMs, err := latmodel.PredictRoundLatencyMs(latmodel.Config{Validators: validators})
	if err != nil {
		return nil, fmt.Errorf("ledger: pbft: %w", err)
	}
	// The cadence is an empty round's; each Commit adds its own costs.
	return &pbftBackend{
		sealer:     newSealer("pbft", cfg, baseMs),
		validators: validators,
		vproc:      &verifyingProc{inner: cfg.Proc},
		refScore:   math.NaN(),
	}, nil
}

// Commit runs one PBFT round: the leader verifies every pending model
// submission against the committed model, seals the batch (rejected
// submissions included as contract no-ops), executes it under the
// block rule, and reports the modeled three-phase latency for the
// batch it actually carried.
func (be *pbftBackend) Commit(leader int, timeMs uint64) (Commit, error) {
	// Model verification over the leader's pending submissions (in
	// pool order, which is deterministic): score each decodable weight
	// vector on the validation set, reject below-margin outliers.
	pending := be.pool.Pending()
	var subTxs []*chain.Transaction
	var batch [][]float32
	for _, tx := range pending {
		if w, ok := submissionWeights(tx); ok {
			subTxs = append(subTxs, tx)
			batch = append(batch, w)
		}
	}
	verdicts := pbftVerify(batch, be.cfg.Verify, be.refScore, pbftVerifyMargin)
	be.vproc.reject = make(map[chain.Hash]bool, len(subTxs))
	for i, ok := range verdicts {
		if !ok {
			be.vproc.reject[subTxs[i].Hash()] = true
		}
	}
	defer func() { be.vproc.reject = nil }()

	b, err := be.seal(leader, timeMs, be.vproc, pending)
	if err != nil {
		return Commit{}, err
	}

	// Surface the verdicts for the batch the block actually carried,
	// and advance the committed model to the accepted batch's mean.
	inBlock := make(map[chain.Hash]bool, len(b.Txs))
	for _, tx := range b.Txs {
		inBlock[tx.Hash()] = true
	}
	var rejected []chain.Hash
	var accepted [][]float32
	updates := 0
	for i, tx := range subTxs {
		h := tx.Hash()
		if !inBlock[h] {
			continue
		}
		updates++
		if verdicts[i] {
			accepted = append(accepted, batch[i])
		} else {
			rejected = append(rejected, h)
		}
	}
	if len(accepted) > 0 && be.cfg.Verify != nil {
		// Advance the committed model and cache its score: the next
		// batch must also beat it by the margin.
		ref := fedAvg(accepted)
		be.refScore = be.cfg.Verify(ref)
	}

	c := commitOf(b)
	c.Rejected = rejected
	c.LatencyMs, err = latmodel.PredictRoundLatencyMs(latmodel.Config{
		Validators:   be.validators,
		PayloadBytes: c.Bytes,
		PerKBMs:      pbftPerKBMs,
		Updates:      updates,
		VerifyMs:     pbftVerifyMsPerUpdate,
	})
	if err != nil {
		return Commit{}, fmt.Errorf("ledger: pbft latency: %w", err)
	}
	return c, nil
}

// submissionWeights recognizes model-submission transactions and
// decodes their weight vector. The second return is true for any
// submission-shaped call — a corrupt weight blob yields (nil, true) so
// verification rejects it rather than letting it onto the contract.
func submissionWeights(tx *chain.Transaction) ([]float32, bool) {
	if tx.To != contract.AggregationAddress {
		return nil, false
	}
	call, _ := contract.CallOf(tx)
	blob, ok := call.SubmitBlob()
	if !ok {
		return nil, false
	}
	w, err := nn.DecodeWeights(blob)
	if err != nil {
		return nil, true
	}
	return w, true
}

// pbftVerify is the model-verification rule: score every candidate
// weight vector with the consortium's validation evaluator (higher is
// better) and reject any scoring more than margin below the round's
// best — the best being the batch's top score or the committed model's
// (refScore; NaN while nothing is committed), whichever is higher.
// Candidates that are corrupt (nil), non-finite, or that the evaluator
// cannot score (NaN) are always rejected. With no evaluator configured
// every well-formed candidate is accepted — verification off. The rule
// is a pure deterministic function of its inputs, so every validator,
// and every replay at any Parallelism, reaches identical verdicts.
func pbftVerify(batch [][]float32, verify func([]float32) float64, refScore, margin float64) []bool {
	accept := make([]bool, len(batch))
	if len(batch) == 0 {
		return accept
	}
	if verify == nil {
		for i, w := range batch {
			accept[i] = w != nil && finite(w)
		}
		return accept
	}
	scores := make([]float64, len(batch))
	best := math.NaN()
	if !math.IsNaN(refScore) {
		best = refScore
	}
	for i, w := range batch {
		scores[i] = math.NaN()
		if w != nil && finite(w) {
			scores[i] = verify(w)
		}
		if !math.IsNaN(scores[i]) && (math.IsNaN(best) || scores[i] > best) {
			best = scores[i]
		}
	}
	for i := range batch {
		accept[i] = !math.IsNaN(scores[i]) && scores[i] >= best-margin
	}
	return accept
}

// finite reports whether every component is a finite float.
func finite(w []float32) bool {
	for _, v := range w {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}

// fedAvg is the plain unweighted mean the committed model advances by.
func fedAvg(batch [][]float32) []float32 {
	out := make([]float32, len(batch[0]))
	sums := make([]float64, len(batch[0]))
	for _, w := range batch {
		for j, v := range w {
			sums[j] += float64(v)
		}
	}
	for j := range out {
		out[j] = float32(sums[j] / float64(len(batch)))
	}
	return out
}
