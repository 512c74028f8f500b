package ledger

import "waitornot/internal/chain"

// powBackend is the sealing core (sealer.go) plus a puzzle — the
// paper's substrate and the default: the round leader stamps the
// retarget rule's difficulty on the block it assembled and mines the
// header before any peer sees it, and the difficulty rule and the proof
// of work are checked before the block executes.
type powBackend struct {
	sealer
}

func newPoW(cfg Config) *powBackend {
	be := &powBackend{newSealer("pow", cfg)}
	be.solve, be.verify = chain.SolvePoW, chain.VerifyPoW
	return be
}

// Commit has the leader mine its pending set into one block.
func (be *powBackend) Commit(leader int, timeMs uint64) (Commit, error) {
	return be.commit(leader, timeMs, be.CommitLatencyMs())
}

// CommitLatencyMs models PoW visibility as one full target interval:
// under memoryless sealing the expected wait from submission to the
// next sealed block is the interval itself.
func (be *powBackend) CommitLatencyMs() float64 {
	return float64(be.cfg.Chain.TargetIntervalMs)
}
