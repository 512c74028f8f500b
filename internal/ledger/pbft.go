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
	// pool order, which is deterministic): score each on the validation
	// set, reject below-margin outliers.
	pending := be.pool.Pending()
	var subTxs []*chain.Transaction
	for _, tx := range pending {
		if isSubmission(tx) {
			subTxs = append(subTxs, tx)
		}
	}
	verify := be.cfg.Verify
	if verify == nil { // verification off: the structural checks alone
		verify = func(subs []*chain.Transaction) float64 {
			return ScoreMean(subs, DecodeSubmission, func([]float32) float64 { return 0 })
		}
	}
	scores := make([]float64, len(subTxs))
	for i := range subTxs {
		scores[i] = verify(subTxs[i : i+1])
	}
	verdicts := pbftVerify(scores, be.refScore, pbftVerifyMargin)
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
	var accepted []*chain.Transaction
	updates := 0
	for i, tx := range subTxs {
		h := tx.Hash()
		if !inBlock[h] {
			continue
		}
		updates++
		if verdicts[i] {
			accepted = append(accepted, tx)
		} else {
			rejected = append(rejected, h)
		}
	}
	if len(accepted) > 0 && be.cfg.Verify != nil {
		// Advance the committed model to the accepted batch's mean and
		// cache its score: the next batch must also beat it by the margin.
		be.refScore = be.cfg.Verify(accepted)
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

// isSubmission recognizes model-submission transactions — any
// submission-shaped call, so that verification rejects a corrupt weight
// blob rather than letting it onto the contract.
func isSubmission(tx *chain.Transaction) bool {
	call, _ := contract.CallOf(tx)
	_, ok := call.SubmitBlob()
	return ok && tx.To == contract.AggregationAddress
}

// DecodeSubmission is the weight vector a model-submission transaction
// carries, or an error when its call or weight blob is malformed.
func DecodeSubmission(tx *chain.Transaction) ([]float32, error) {
	call, _ := contract.CallOf(tx)
	blob, ok := call.SubmitBlob()
	if !ok {
		return nil, fmt.Errorf("ledger: %s is not a submission", tx.Hash().Short())
	}
	return nn.DecodeWeights(blob)
}

// ScoreMean is Config.Verify's score of subs, each decoded by decode,
// under score: NaN when one fails to decode or is non-finite, else the
// score of the one vector or of several vectors' unweighted mean.
func ScoreMean(subs []*chain.Transaction, decode func(*chain.Transaction) ([]float32, error), score func([]float32) float64) float64 {
	vecs := make([][]float32, len(subs))
	for i, tx := range subs {
		w, err := decode(tx)
		if err != nil || !finite(w) {
			return math.NaN()
		}
		vecs[i] = w
	}
	if len(vecs) == 1 {
		return score(vecs[0])
	}
	return score(fedAvg(vecs))
}

// pbftVerify is the model-verification rule over the candidates'
// scores (higher is better; NaN for a corrupt, non-finite or
// unscorable candidate, always rejected): reject any scoring more than
// margin below the round's best — the batch's top score or the
// committed model's (refScore; NaN while nothing is committed),
// whichever is higher. The rule is a pure deterministic function of its
// inputs, so every validator, and every replay at any Parallelism,
// reaches identical verdicts.
func pbftVerify(scores []float64, refScore, margin float64) []bool {
	best := refScore
	for _, s := range scores {
		if !math.IsNaN(s) && (math.IsNaN(best) || s > best) {
			best = s
		}
	}
	accept := make([]bool, len(scores))
	for i, s := range scores {
		accept[i] = !math.IsNaN(s) && s >= best-margin
	}
	return accept
}

// finite reports whether every component is a finite float: v-v is
// exactly 0 for those, NaN for an infinity or a NaN.
func finite(w []float32) bool {
	for _, v := range w {
		if v-v != 0 {
			return false
		}
	}
	return true
}

// fedAvg is the plain unweighted mean the committed model advances by:
// each weight the float64 sum over the batch, in order, divided by its
// size.
func fedAvg(batch [][]float32) []float32 {
	out := make([]float32, len(batch[0]))
	for j := range out {
		var sum float64
		for _, w := range batch {
			sum += float64(w[j])
		}
		out[j] = float32(sum / float64(len(batch)))
	}
	return out
}
