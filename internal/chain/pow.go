package chain

import (
	"fmt"
	"math/big"
)

// maxTarget is 2^256, the PoW target at difficulty 1.
var maxTarget = new(big.Int).Lsh(big.NewInt(1), 256)

// powTarget returns the threshold a block hash must be below at the
// given difficulty.
func powTarget(difficulty uint64) *big.Int {
	if difficulty == 0 {
		difficulty = 1
	}
	return new(big.Int).Div(maxTarget, new(big.Int).SetUint64(difficulty))
}

// CheckPoW reports whether the header's hash satisfies its difficulty.
func CheckPoW(h *Header) bool {
	hash := h.Hash()
	return new(big.Int).SetBytes(hash[:]).Cmp(powTarget(h.Difficulty)) < 0
}

// Mine searches nonces from zero until the header satisfies its
// difficulty, and leaves the solution in the header's Nonce.
func Mine(h *Header) {
	target := powTarget(h.Difficulty)
	for h.Nonce = 0; ; h.Nonce++ {
		hash := h.Hash()
		if new(big.Int).SetBytes(hash[:]).Cmp(target) < 0 {
			return
		}
	}
}

// SolvePoW is the leader's half of the proof-of-work puzzle: stamp the
// difficulty the retarget rule requires of parent's child on the
// otherwise finished header h, then mine it.
func SolvePoW(cfg Config, parent, h *Header) {
	h.Difficulty = nextDifficulty(parent, h.Time, cfg.TargetIntervalMs, cfg.MinDifficulty)
	Mine(h)
}

// VerifyPoW is the verifier's half, the puzzle ApplyBlock runs on a
// proof-of-work chain: h carries exactly the difficulty the retarget
// rule requires, and its hash meets it.
func VerifyPoW(cfg Config, parent, h *Header) error {
	want := nextDifficulty(parent, h.Time, cfg.TargetIntervalMs, cfg.MinDifficulty)
	if h.Difficulty != want {
		return fmt.Errorf("%w: got %d, want %d", ErrWrongDifficulty, h.Difficulty, want)
	}
	if !CheckPoW(h) {
		return ErrInvalidPoW
	}
	return nil
}

// nextDifficulty computes a child block's required difficulty from its
// parent: a simplified Ethereum-homestead rule that nudges difficulty
// up when blocks arrive faster than the target interval and down when
// they arrive slower than twice the target, floored at min.
func nextDifficulty(parent *Header, childTimeMs uint64, targetIntervalMs uint64, min uint64) uint64 {
	if min == 0 {
		min = 1
	}
	d := parent.Difficulty
	step := d / 64
	if step == 0 {
		step = 1
	}
	dt := childTimeMs - parent.Time
	switch {
	case childTimeMs <= parent.Time || dt < targetIntervalMs:
		d += step
	case dt > 2*targetIntervalMs:
		if d > step {
			d -= step
		}
	}
	if d < min {
		d = min
	}
	return d
}
