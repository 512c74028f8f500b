// Package ledger abstracts the consensus substrate the decentralized
// FL rounds commit through. The paper's wait-vs-not-wait question is a
// question about commit latency — how long an aggregation policy waits
// on the ledger — so the substrate is a first-class experiment axis
// rather than a hard-coded PoW chain.
//
// A Backend accepts signed transactions into a gossiped pending set
// and commits everything pending in one batch at a logical timestamp;
// peers then read contract state and committed transactions from it.
// The runner is deterministic and one leader seals each commit, so
// every peer's copy of the chain would hold the same bytes: a backend
// keeps one chain, one state and one pending set, and charges
// replication per validator in virtual time (its commit latency), not
// as host work.
//
// All four built-in substrates are one book (book.go: the mempool, the
// committed state, the committed list and the gas and byte counters)
// plus one commit rule each:
//
//   - pow: the sealing core (sealer.go, the only block store) at the
//     target interval, with a puzzle — the paper's substrate and the
//     default. The round leader seals its pending set under the block
//     rule, chain.ApplyBlock, after stamping the retarget rule's
//     difficulty and mining the header; both are checked before the
//     block executes.
//   - poa: the same core with no puzzle and a fixed slot a fraction of
//     PoW's interval — round-robin authority sealing.
//   - pbft: the same core at the analytic three-phase O(n²) latency of
//     internal/ledger/latmodel, plus model verification that scores
//     each submitted update against the committed model and excludes
//     outliers from the aggregation batch (see pbft.go).
//   - instant: no blocks at all — each commit applies the pending set,
//     in pool order, to the state at zero latency: the consensus-free
//     limit, for huge peer-count sweeps. See DESIGN.md for why FL
//     semantics survive.
//
// Backends are constructed through a registry (Register / New /
// Backends) mirroring the public scenario registry, so new substrates
// — or parameter variants of existing ones — become one-line
// registrations.
package ledger

import (
	"fmt"
	"sort"
	"sync"

	"waitornot/internal/chain"
	"waitornot/internal/keys"
)

// Config is everything a backend factory needs: the participant count,
// consensus parameters, the genesis allocation, the contract processor,
// and each peer's sealing address (miner for pow, authority for poa).
type Config struct {
	// Name is the registry name the backend is being built under. New
	// writes it (it is not a knob: whatever a caller put there is
	// overwritten), so a backend carries its name from construction and
	// a parameter variant registered on a base substrate reports the
	// variant's name. A factory called directly leaves it empty and the
	// substrate falls back to its own name.
	Name string
	// Peers is the number of participants holding a ledger view.
	Peers int
	// Chain fixes consensus parameters (gas schedule, block gas limit,
	// difficulty, target interval).
	Chain chain.Config
	// Alloc is the genesis balance allocation.
	Alloc map[keys.Address]uint64
	// Proc executes contract payloads (the contract VM).
	Proc chain.Processor
	// Sealers[i] is peer i's block-sealing address.
	Sealers []keys.Address
	// Validators is the modeled consensus-committee size for backends
	// with an analytic latency model (pbft: n = 3f+1, minimum 4;
	// 0 = backend default). Independent of Peers — the committee is a
	// latency-model parameter; the ledger keeps one state either way.
	Validators int
	// Verify scores submitted models on the consortium's validation set
	// — higher is better, NaN means unscorable. It is handed submission
	// transactions, not vectors: one, for the model it carries, or an
	// accepted batch, for the committed model, their unweighted mean (as
	// ScoreMean). A corrupt weight blob or a non-finite vector scores
	// NaN. The score is a function of the transactions' bytes, so a
	// caller may key it by them. Backends with model verification (pbft)
	// reject submissions scoring more than a fixed margin below the
	// round's best; nil disables verification, leaving only the blob and
	// finiteness checks.
	Verify func(subs []*chain.Transaction) float64
}

// Validate rejects configs no backend can honour.
func (c Config) Validate() error {
	if c.Peers < 1 {
		return fmt.Errorf("ledger: need at least 1 peer, got %d", c.Peers)
	}
	if len(c.Sealers) != c.Peers {
		return fmt.Errorf("ledger: %d sealers for %d peers", len(c.Sealers), c.Peers)
	}
	return nil
}

// checkLeader rejects a sealing peer outside the config's peers.
func (c Config) checkLeader(leader int) error {
	if leader < 0 || leader >= c.Peers {
		return fmt.Errorf("ledger: leader %d out of range", leader)
	}
	return nil
}

// genesisState is the state the genesis allocation funds.
func (c Config) genesisState() *chain.State {
	st := chain.NewState()
	for a, v := range c.Alloc {
		st.Account(a).Balance = v
	}
	return st
}

// nameOr resolves the backend's name: the registry name New passed
// down, or the substrate's own when the factory was called directly.
func (c Config) nameOr(fallback string) string {
	if c.Name != "" {
		return c.Name
	}
	return fallback
}

// Commit summarizes one committed batch: one block for the chain-backed
// substrates, one applied batch for instant.
type Commit struct {
	// Height is the commit's position: block number, or batch index
	// for instant.
	Height uint64
	// Txs is how many pending transactions the commit included.
	Txs int
	// GasUsed is the batch's total execution gas.
	GasUsed uint64
	// Bytes is the committed batch's encoded size.
	Bytes int
	// Hash identifies the sealed block (zero for instant).
	Hash chain.Hash
	// LatencyMs is the backend's modeled commit latency — the simnet
	// visibility delay between submitting into the pending set and the
	// batch being readable on every peer's view.
	LatencyMs float64
	// Rejected lists transactions whose model submission failed the
	// backend's verification (pbft): the transaction committed — nonce
	// advanced, audit trail intact — but its contract effect was
	// suppressed, so the update is excluded from the aggregation batch.
	Rejected []chain.Hash
}

// Footprint is a ledger's cumulative on-chain cost, the data behind
// ChainStats in experiment reports.
type Footprint struct {
	// Blocks counts committed blocks including genesis (batches for
	// instant, which has no genesis).
	Blocks int
	// Txs counts committed transactions.
	Txs int
	// GasUsed is total execution gas.
	GasUsed uint64
	// Bytes is the total encoded ledger size.
	Bytes int
}

// Backend is a consensus substrate under the deterministic runner: a
// gossiped pending set, batch commits at logical timestamps, and one
// chain every peer reads. Implementations need not be safe for
// concurrent mutation — the runner submits and commits from the
// coordinator goroutine — but the read methods (StateView,
// CommittedTxs) must be safe to call concurrently with each other.
// The peer parameters name whose view is read; every view is the
// same one.
type Backend interface {
	// Name returns the registry name the backend was built under.
	Name() string
	// Submit validates a signed transaction and gossips it into every
	// peer's pending set.
	Submit(tx *chain.Transaction) error
	// Commit seals everything pending, in the pool's gas-price order
	// (up to gas capacity for the chain-backed substrates), into one
	// batch at logical time timeMs, applied to every peer's view.
	// leader selects the sealing peer.
	Commit(leader int, timeMs uint64) (Commit, error)
	// Pending reports peer's pending-set size (transactions submitted
	// but not yet committed — capacity-evicted stragglers included).
	Pending(peer int) int
	// StateView returns peer's post-commit contract state for reading.
	// Every peer shares one state, never written after a Commit
	// publishes it: a view stays valid across later commits and must be
	// treated as read-only.
	StateView(peer int) *chain.State
	// CommittedTxs returns every committed transaction in canonical
	// order, from peer's view. Read-only, and stable: a Commit extends
	// the view by exactly the transactions it included and never
	// rewrites what an earlier call returned.
	CommittedTxs(peer int) []*chain.Transaction
	// CommitLatencyMs is the modeled visibility delay of one commit —
	// the block interval wait policies face when commit latency is
	// being modeled. Zero for instant.
	CommitLatencyMs() float64
	// Footprint reports the cumulative ledger cost from peer 0's view.
	Footprint() Footprint
}

// Chainer is implemented by the backends that seal blocks (pow, poa,
// pbft — not instant); callers needing raw blocks type-assert for it.
type Chainer interface {
	// Chain returns the sealed blocks from peer's view, genesis first.
	// Read-only: a Commit appends to it.
	Chain(peer int) []*chain.Block
}

// Factory builds a backend from a config.
type Factory func(Config) (Backend, error)

// Info describes a registered backend for listings.
type Info struct {
	// Name is the registry key.
	Name string
	// Description is a one-line summary.
	Description string
}

type entry struct {
	info    Info
	factory Factory
}

var (
	regMu    sync.RWMutex
	registry = map[string]entry{}
)

// Register adds a backend factory under name. It rejects empty and
// duplicate names so every listed backend is constructible.
func Register(name, description string, f Factory) error {
	if name == "" {
		return fmt.Errorf("ledger: backend needs a name")
	}
	if f == nil {
		return fmt.Errorf("ledger: backend %q needs a factory", name)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		return fmt.Errorf("ledger: backend %q already registered", name)
	}
	registry[name] = entry{info: Info{Name: name, Description: description}, factory: f}
	return nil
}

// MustRegister is Register, panicking on error — for init blocks.
func MustRegister(name, description string, f Factory) {
	if err := Register(name, description, f); err != nil {
		panic(err)
	}
}

// Lookup returns the named backend's factory.
func Lookup(name string) (Factory, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	e, ok := registry[name]
	return e.factory, ok
}

// Names lists registered backend names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Backends lists registered backends, sorted by name.
func Backends() []Info {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Info, 0, len(registry))
	for _, e := range registry {
		out = append(out, e.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// New builds the named backend ("" selects defaultBackend), passing the
// registry name down in Config.Name: a backend carries its name from
// construction, so parameter variants registered on a base substrate
// stay distinguishable in events and reports — and keep the base's
// capabilities (Chainer) — without a forwarding wrapper.
func New(name string, cfg Config) (Backend, error) {
	if name == "" {
		name = defaultBackend
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Proc == nil {
		cfg.Proc = chain.NopProcessor{}
	}
	f, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("ledger: unknown backend %q (registered: %v)", name, Names())
	}
	cfg.Name = name
	return f(cfg)
}

// defaultBackend is the backend used when none is named: the original
// proof-of-work path.
const defaultBackend = "pow"

// poaSlotDiv divides the PoW target interval into the PoA sealing
// slot: authorities seal on a fixed rotation without solving puzzles,
// so the modeled commit latency is a fraction of the PoW interval —
// the consortium middle rung of the consensus ladder (cf. "Latency
// Analysis of Consortium Blockchained Federated Learning").
const poaSlotDiv = 5

func init() {
	// pow models visibility as one full target interval: under
	// memoryless sealing the expected wait from submission to the next
	// sealed block is the interval itself.
	MustRegister("pow", "fixed-leader proof-of-work chain (the paper's substrate; default)",
		func(cfg Config) (Backend, error) {
			s := newSealer("pow", cfg, float64(cfg.Chain.TargetIntervalMs))
			s.solve, s.verify = chain.SolvePoW, chain.VerifyPoW
			return s, nil
		})
	MustRegister("poa", "round-robin authority sealing: real blocks, no mining loop",
		func(cfg Config) (Backend, error) {
			return newSealer("poa", cfg, float64(cfg.Chain.TargetIntervalMs)/poaSlotDiv), nil
		})
	MustRegister("instant", "in-memory state machine, no block assembly (consensus-free limit)",
		func(cfg Config) (Backend, error) { return &instantBackend{book: newBook("instant", cfg)}, nil })
	MustRegister("pbft", "consortium PBFT: analytic 3-phase O(n²) latency model + model verification",
		func(cfg Config) (Backend, error) { return newPBFT(cfg) })
}
