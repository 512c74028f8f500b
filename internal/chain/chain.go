package chain

import "fmt"

// Config fixes a chain's consensus parameters.
type Config struct {
	// Gas is the execution price schedule.
	Gas GasSchedule
	// BlockGasLimit caps per-block gas. The paper configures Ethereum
	// "without block size and transaction size constraints"; the
	// default is effectively unlimited, and the throughput ablations
	// shrink it.
	BlockGasLimit uint64
	// GenesisDifficulty seeds PoW difficulty.
	GenesisDifficulty uint64
	// MinDifficulty floors retargeting.
	MinDifficulty uint64
	// TargetIntervalMs is the block interval the retarget rule aims at.
	TargetIntervalMs uint64
	// BlockReward is the subsidy credited to each block's miner.
	BlockReward uint64
}

// DefaultConfig returns the experiment chain parameters: difficulty low
// enough to mine promptly in-process, effectively unbounded block gas.
func DefaultConfig() Config {
	return Config{
		Gas:               DefaultGasSchedule(),
		BlockGasLimit:     1 << 62,
		GenesisDifficulty: 1 << 16,
		MinDifficulty:     1 << 12,
		TargetIntervalMs:  1000,
		BlockReward:       2_000_000_000,
	}
}

// Genesis returns the block every chain under cfg starts from: empty
// body, the configured gas limit, and the difficulty the retarget rule
// starts at (read by the proof-of-work puzzle only).
func Genesis(cfg Config) *Block {
	return &Block{Header: Header{
		Difficulty: cfg.GenesisDifficulty,
		GasLimit:   cfg.BlockGasLimit,
		TxRoot:     MerkleRoot(nil),
	}}
}

// ApplyBlock is the block rule — the one definition of a valid block,
// run by every replica of every block-sealing substrate on every block
// and folded over a saved chain by the audit replay. It links b to
// parent, checks the header against cfg and the body, and replays the
// body on st, the parent's post-state, which becomes b's (miner reward
// included). puzzle is the check the substrate's consensus family adds
// on the header (VerifyPoW; nil under authority sealing). On error st
// is left part-way through the block: a caller that goes on needs a
// copy.
func ApplyBlock(cfg Config, parent *Header, b *Block, st *State, proc Processor, puzzle func(cfg Config, parent, h *Header) error) error {
	h := &b.Header
	if h.ParentHash != parent.Hash() {
		return fmt.Errorf("%w: %s", ErrBadParent, h.ParentHash.Short())
	}
	if h.Number != parent.Number+1 {
		return fmt.Errorf("%w: %d after %d", ErrBadNumber, h.Number, parent.Number)
	}
	if h.Time < parent.Time {
		return fmt.Errorf("%w: %d < parent %d", ErrBadTime, h.Time, parent.Time)
	}
	if puzzle != nil {
		if err := puzzle(cfg, parent, h); err != nil {
			return err
		}
	}
	if h.TxRoot != MerkleRoot(b.Txs) {
		return ErrBadTxRoot
	}
	if h.GasLimit > cfg.BlockGasLimit {
		return fmt.Errorf("%w: header limit %d > config %d", ErrBlockGasExceed, h.GasLimit, cfg.BlockGasLimit)
	}
	var gasUsed uint64
	for i, tx := range b.Txs {
		if err := tx.ValidateBasic(cfg.Gas); err != nil {
			return fmt.Errorf("tx %d: %w", i, err)
		}
		rec, err := ApplyTx(cfg.Gas, st, tx, h.Miner, proc)
		if err != nil {
			return fmt.Errorf("tx %d: %w", i, err)
		}
		gasUsed += rec.GasUsed
		if gasUsed > h.GasLimit {
			return fmt.Errorf("%w: used %d > limit %d", ErrBlockGasExceed, gasUsed, h.GasLimit)
		}
	}
	if gasUsed != h.GasUsed {
		return fmt.Errorf("%w: executed %d, declared %d", ErrBadGasUsed, gasUsed, h.GasUsed)
	}
	st.Account(h.Miner).Balance += cfg.BlockReward
	return nil
}
