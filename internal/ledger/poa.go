package ledger

// poaSlotDiv divides the PoW target interval into the PoA sealing
// slot: authorities seal on a fixed rotation without solving puzzles,
// so the modeled commit latency is a fraction of the PoW interval —
// the consortium middle rung of the consensus ladder (cf. "Latency
// Analysis of Consortium Blockchained Federated Learning").
const poaSlotDiv = 5

// poaBackend is the sealing core (sealer.go) with round-robin
// authorities and a fixed slot latency: real blocks executed under the
// block rule, no proof-of-work.
type poaBackend struct {
	sealer
}

func newPoA(cfg Config) *poaBackend { return &poaBackend{newSealer("poa", cfg)} }

// Commit has the leader authority seal its pending set into one block.
func (be *poaBackend) Commit(leader int, timeMs uint64) (Commit, error) {
	return be.commit(leader, timeMs, be.CommitLatencyMs())
}

// CommitLatencyMs models authority sealing at a fixed slot a fraction
// of the PoW interval: no puzzle to solve, just the rotation.
func (be *poaBackend) CommitLatencyMs() float64 {
	return float64(be.cfg.Chain.TargetIntervalMs) / poaSlotDiv
}
