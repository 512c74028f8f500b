package waitornot

import (
	"fmt"
	"strings"

	"waitornot/internal/chain"
	"waitornot/internal/ledger"
	"waitornot/internal/ledger/latmodel"
)

// The consensus-backend registry: the substrate FL rounds commit
// through is a first-class experiment axis, mirroring the scenario
// registry. Four backends ship built in —
//
//   - "pow": the paper's substrate, a fixed-leader proof-of-work
//     chain. The default; bit-identical to the original runner.
//   - "poa": round-robin authority sealing — real blocks and gas
//     accounting but no mining loop, at a fifth of PoW's modeled
//     commit interval.
//   - "instant": an in-memory state machine applying contract calls
//     with no block assembly at all, for huge peer-count sweeps.
//   - "pbft": consortium PBFT — commit latency from the analytic
//     three-phase O(n²) model in internal/ledger/latmodel, plus model
//     verification that screens poisoned submissions at the ledger.
//
// — and RegisterBackend adds named parameter variants (a slower PoW,
// a capacity-constrained chain) without touching engine code:
//
//	err := waitornot.RegisterBackend(waitornot.BackendSpec{
//	    Name:            "pow-slow",
//	    Description:     "PoW with a 5s block interval",
//	    Base:            "pow",
//	    BlockIntervalMs: 5000,
//	})
//	res, err := waitornot.New(opts, waitornot.WithBackend("pow-slow")).Run(ctx)

// BackendInfo describes one registered consensus backend: its Name
// (the registry key, usable as Options.Backend) and a one-line
// Description for listings.
type BackendInfo = ledger.Info

// Backends lists the registered consensus backends, sorted by name.
func Backends() []BackendInfo { return ledger.Backends() }

// BackendSpec registers a named consensus backend: an existing
// substrate (Base) plus consensus-parameter overrides. Registered
// specs are selectable everywhere a built-in is — Options.Backend,
// WithBackend, Scenario.Backends, and the -backend CLI flag.
type BackendSpec struct {
	// Name is the new backend's registry key (unique, non-empty).
	Name string
	// Description is a one-line summary for listings.
	Description string
	// Base names the substrate to derive from: "pow", "poa",
	// "instant", or any previously registered name.
	Base string
	// BlockIntervalMs overrides the target commit interval in
	// milliseconds (0 = base default). It drives both the difficulty
	// retarget rule (pow) and the modeled commit latency wait
	// policies face.
	BlockIntervalMs uint64
	// BlockGasLimit overrides per-block gas capacity (0 = base
	// default, effectively unlimited).
	BlockGasLimit uint64
	// GenesisDifficulty overrides the PoW starting difficulty
	// (0 = base default; ignored by non-mining substrates).
	GenesisDifficulty uint64
	// Validators overrides the modeled consensus-committee size for
	// bases with an analytic latency model (pbft: n = 3f+1, minimum 4;
	// 0 = base default). Ignored by pow/poa/instant.
	Validators int
}

// RegisterBackend adds the spec to the backend registry. It rejects
// empty or duplicate names, unknown bases and a committee size PBFT
// cannot run, so every listed backend is constructible.
func RegisterBackend(s BackendSpec) error {
	if s.Name == "" {
		return fmt.Errorf("waitornot: backend spec needs a name")
	}
	if s.Validators != 0 && s.Validators < latmodel.MinValidators {
		return fmt.Errorf("waitornot: backend %q: %d validators, want 0 (the base default) or at least %d (n = 3f+1 with f >= 1)",
			s.Name, s.Validators, latmodel.MinValidators)
	}
	base, ok := ledger.Lookup(s.Base)
	if !ok {
		return fmt.Errorf("waitornot: backend %q: unknown base %q (registered: %s)",
			s.Name, s.Base, strings.Join(ledger.Names(), ", "))
	}
	spec := s // capture by value: later mutations of s must not leak in
	return ledger.Register(s.Name, s.Description, func(cfg ledger.Config) (ledger.Backend, error) {
		cfg.Chain = spec.apply(cfg.Chain)
		if spec.Validators > 0 {
			cfg.Validators = spec.Validators
		}
		return base(cfg)
	})
}

// apply layers the spec's overrides onto the chain parameters.
func (s BackendSpec) apply(c chain.Config) chain.Config {
	if s.BlockIntervalMs > 0 {
		c.TargetIntervalMs = s.BlockIntervalMs
	}
	if s.BlockGasLimit > 0 {
		c.BlockGasLimit = s.BlockGasLimit
	}
	if s.GenesisDifficulty > 0 {
		c.GenesisDifficulty = s.GenesisDifficulty
		if c.MinDifficulty > c.GenesisDifficulty {
			c.MinDifficulty = c.GenesisDifficulty
		}
	}
	return c
}
