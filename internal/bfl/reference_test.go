package bfl

import (
	"context"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"waitornot/internal/core"
	"waitornot/internal/dataset"
	"waitornot/internal/fl"
	"waitornot/internal/nn"
	"waitornot/internal/par"
	"waitornot/internal/simnet"
	"waitornot/internal/xrand"
)

// reference is the barriered run restated from the paper and DESIGN §7
// ("The round without the chain"), as straight loops over a World's
// data: no pool, no memo, no scratch, no ledger and no encode/decode.
// Its leaf functions are fl's clients and FedAvg, nn.Evaluate on a
// model built for the call, and simnet's walk and wait terms. The chain
// enters as a transport only: the interval at which a remote update
// becomes readable, and pbft's admission of what reaches the chain.
type reference struct {
	w     *World
	cfg   Config  // defaulted
	every float64 // the visibility interval: the backend's, 0 without CommitLatency
	admit bool    // pbft's admission rule gates the chain

	clients      []*fl.Client // by slot
	ties, arrive []*xrand.RNG
	trainMs      []float64
	adopted      [][]float32
	committed    float64 // pbft: the committed model's held-out score, NaN before one
	rounds       []refRound
	tally        refTally
}

// refRound is what a round left: by slot, each participant's stats and
// combination-table row, and every peer's adopted weights.
type refRound struct {
	stats   map[int]RoundStats
	rows    map[int][]float64
	adopted [][]float32
}

// refTally counts the events that make the grid more than a happy path.
type refTally struct {
	ties         int // choices among tied combinations, made by the draw
	deadlineCuts int // deadlines that fired before every participant was in
	pbftRejected int // submissions pbft kept off the chain
	ownRejected  int // decisions aggregating the decider's own rejected update
	filtered     int // updates the abnormal-model filter rejected
	capped       int // decisions past the 8-update cap
}

func (t *refTally) add(o refTally) {
	t.ties += o.ties
	t.deadlineCuts += o.deadlineCuts
	t.pbftRejected += o.pbftRejected
	t.ownRejected += o.ownRejected
	t.filtered += o.filtered
	t.capped += o.capped
}

// The constants the reference restates (DESIGN §1, §7, §8): a model
// costs its forward multiply-adds at this rate, a submission leaves
// 20 ms plus 0.08 ms a KB after training ends, pbft admits within 0.15
// of the best, and the subsampled fleet's search takes at most 8
// updates.
const (
	refMulAddsPerMs = 77_050_000
	refLatencyMs    = 20
	refPerKBMs      = 0.08
	refPBFTMargin   = 0.15
	refComboCap     = 8
)

// refInterval is the backend's visibility interval: pow's one-second
// block target, poa's five authority slots to it, pbft's empty
// three-phase round (75 ms, DESIGN §8), and none on instant.
var refInterval = map[string]float64{"pow": 1000, "poa": 200, "pbft": 75, "instant": 0}

// newReference readies the reference run of cfg over w.
func newReference(w *World, cfg Config, every float64, admit bool) *reference {
	cfg = cfg.withDefaults()
	r := &reference{w: w, cfg: cfg, every: every, admit: admit, committed: math.NaN()}
	root := xrand.New(cfg.Seed)
	for s, gi := range w.active {
		name := fl.ClientName(gi)
		model := cfg.Model.Build(nil)
		straggler := 1.0
		if cfg.StragglerFactor != nil {
			straggler = cfg.StragglerFactor[gi]
		}
		r.clients = append(r.clients, fl.NewClient(name, model, w.train[s], w.sel[s], w.test[s], cfg.Hyper, root.Derive("train-"+name)))
		r.ties = append(r.ties, root.Derive("ties-"+name))
		r.arrive = append(r.arrive, root.Derive("arrive-"+name))
		r.trainMs = append(r.trainMs, float64(w.train[s].Len()*cfg.Hyper.LocalEpochs)*(float64(model.MulAdds())/refMulAddsPerMs)*straggler)
		r.adopted = append(r.adopted, w.initial)
	}
	return r
}

// run runs every round.
func (r *reference) run() *reference {
	for round := 1; round <= r.cfg.Rounds; round++ {
		r.round(round)
	}
	return r
}

// round is one barriered round: every participant trains and sends;
// under pbft the chain admits what scores within the margin of the
// best; then each participant walks its arrivals, filters what its
// policy admitted, and adopts the best of Table II's combinations.
func (r *reference) round(round int) {
	cfg, w := r.cfg, r.w
	slots := upTo(len(w.active))
	if w.participants != nil {
		slots = w.participants[round]
	}

	// 1. Training, and each update's arrival model, in slot order.
	ups := make([]*fl.Update, len(slots))
	sends := make([]simnet.Send, len(slots))
	for k, s := range slots {
		c := r.clients[s]
		if err := c.Model.SetWeightVector(r.adopted[s]); err != nil {
			panic(err)
		}
		ups[k] = c.LocalTrain(round)
		trained := r.trainMs[s] * cfg.Compute.Draw(r.arrive[s])
		// The submission's wire size: a 10-byte header, 4 bytes a
		// weight and a 4-byte trailer.
		kb := float64(14+4*len(ups[k].Weights)) / 1024
		sent := trained + refLatencyMs + kb*refPerKBMs
		if !cfg.Network.IsZero() {
			sent += cfg.Network.Draw(r.arrive[s])
		}
		sends[k] = simnet.Send{TrainedMs: trained, SentMs: sent}
	}

	// 2. pbft's admission: score on the held-out set, reject what falls
	// more than the margin below the best of the batch and the committed
	// model, and commit the accepted batch's unweighted float64 mean.
	onChain := make([]bool, len(slots))
	for k := range onChain {
		onChain[k] = true
	}
	if r.admit {
		held := w.heldOutSet()
		scores, best := make([]float64, len(ups)), r.committed
		for k, u := range ups {
			scores[k] = refAccuracy(cfg.Model, held, u.Weights)
			if math.IsNaN(best) || scores[k] > best {
				best = scores[k]
			}
		}
		var accepted []*fl.Update
		for k, u := range ups {
			if onChain[k] = scores[k] >= best-refPBFTMargin; onChain[k] {
				accepted = append(accepted, u)
			} else {
				r.tally.pbftRejected++
			}
		}
		if len(accepted) > 0 {
			r.committed = refAccuracy(cfg.Model, held, refMean(accepted))
		}
	}

	// 3. Each participant decides over what its wait policy admits of
	// the chain's updates and its own, which it never discards.
	out := refRound{stats: map[int]RoundStats{}, rows: map[int][]float64{}}
	next := slices.Clone(r.adopted)
	for k, s := range slots {
		var avail []int
		for j := range ups {
			if onChain[j] || j == k {
				avail = append(avail, j)
			}
		}
		if !onChain[k] {
			r.tally.ownRejected++
		}
		sort.SliceStable(avail, func(a, b int) bool { return ups[avail[a]].Client < ups[avail[b]].Client })
		walk := make([]simnet.Send, len(avail))
		for i, j := range avail {
			walk[i] = sends[j]
			walk[i].Own = j == k
		}
		at, waitMs := simnet.WalkRound(cfg.Policy, walk, r.every)
		included := make([]*fl.Update, len(at))
		for i, a := range at {
			included[i] = ups[avail[a]]
		}
		if d := cfg.Policy.Deadline; d > 0 && waitMs == float64(d)/float64(time.Millisecond) && len(at) < len(slots) {
			r.tally.deadlineCuts++
		}
		st := RoundStats{Round: round, Included: len(at), WaitMs: waitMs}
		st.ComputeMs, st.PropagateMs, st.CommitMs, st.IdleMs = simnet.WaitTerms(walk[at[len(at)-1]], r.every, waitMs)
		picked, rejected := r.decide(s, ups[k].Client, included)
		names := make([]string, len(picked))
		for i, u := range picked {
			names[i] = u.Client
		}
		next[s] = refFedAvg(picked)
		st.ChosenCombo = strings.Join(names, ",")
		st.ChosenAccuracy = refAccuracy(cfg.Model, w.test[s], next[s])
		st.Rejected = rejected
		out.stats[s] = st

		// The paper's table: every row over every participant's update,
		// whatever the policy and the chain admitted, on the test set.
		if cfg.EvalAllCombos && w.participants == nil {
			for _, row := range paperRows(len(ups), k) {
				out.rows[s] = append(out.rows[s], refAccuracy(cfg.Model, w.test[s], refFedAvg(refPick(ups, row))))
			}
		}
	}
	r.adopted, out.adopted = next, next
	r.rounds = append(r.rounds, out)
}

// decide is the paper's aggregation by the peer at slot s named self
// over what its policy admitted: sort by client, drop the models the
// filter calls abnormal (never the peer's own), and pick the best of
// Table II's rows on the selection set, ties drawn from the peer's
// "ties-" stream; past the fleet's cap, everything kept. It returns the
// adopted members in client order and the rejected clients.
func (r *reference) decide(s int, self string, included []*fl.Update) (picked []*fl.Update, rejected []string) {
	sel := r.w.sel[s]
	kept := slices.Clone(included)
	sort.Slice(kept, func(a, b int) bool { return kept[a].Client < kept[b].Client })
	if margin := r.cfg.Filter.MaxBelowBest; margin > 0 {
		scores, best := make([]float64, len(kept)), 0.0
		for i, u := range kept {
			scores[i] = refAccuracy(r.cfg.Model, sel, u.Weights)
			best = max(best, scores[i])
		}
		all := kept
		kept = nil
		for i, u := range all {
			if u.Client == self || scores[i] >= best-margin {
				kept = append(kept, u)
			} else {
				rejected = append(rejected, u.Client)
				r.tally.filtered++
			}
		}
	}
	if r.w.participants != nil && len(kept) > refComboCap {
		r.tally.capped++
		return kept, rejected
	}
	me := slices.IndexFunc(kept, func(u *fl.Update) bool { return u.Client == self })
	rows := paperRows(len(kept), me)
	accs := make([]float64, len(rows))
	for i, row := range rows {
		accs[i] = refAccuracy(r.cfg.Model, sel, refFedAvg(refPick(kept, row)))
	}
	best := slices.Max(accs)
	var tied []int
	for i, a := range accs {
		if a == best {
			tied = append(tied, i)
		}
	}
	choice := tied[0]
	if len(tied) > 1 {
		r.tally.ties++
		choice = tied[r.ties[s].Intn(len(tied))]
	}
	return refPick(kept, rows[choice]), rejected
}

// paperRows are Table II's rows for member self of n, as member
// indices: self alone, every pair (self's first), and all n above two.
func paperRows(n, self int) [][]int {
	rows, others := [][]int{{self}}, [][]int(nil)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if i == self || j == self {
				rows = append(rows, []int{i, j})
			} else {
				others = append(others, []int{i, j})
			}
		}
	}
	rows = append(rows, others...)
	if n > 2 {
		rows = append(rows, upTo(n))
	}
	return rows
}

func refPick(ups []*fl.Update, idx []int) []*fl.Update {
	out := make([]*fl.Update, len(idx))
	for i, j := range idx {
		out[i] = ups[j]
	}
	return out
}

func refFedAvg(ups []*fl.Update) []float32 {
	w, err := fl.FedAvg(ups)
	if err != nil {
		panic(err)
	}
	return w
}

// refMean is pbft's committed model (DESIGN §8): each weight the
// float64 sum over ups divided by their count, whatever their samples.
func refMean(ups []*fl.Update) []float32 {
	out := make([]float32, len(ups[0].Weights))
	for j := range out {
		var sum float64
		for _, u := range ups {
			sum += float64(u.Weights[j])
		}
		out[j] = float32(sum / float64(len(ups)))
	}
	return out
}

// refAccuracy is weights' accuracy on s, in a model built for the call.
func refAccuracy(id nn.ModelID, s *dataset.Set, weights []float32) float64 {
	m := id.Build(nil)
	if err := m.SetWeightVector(weights); err != nil {
		panic(err)
	}
	return nn.Evaluate(m, s.X, s.Y, 64)
}

// refCell is one engine run of the grid and the reference it must equal.
type refCell struct {
	name string
	cfg  Config
	ref  func() *reference
	got  []refRound // the engine's, after each round
	err  error
}

// run drives the engine round by round, keeping what each round left.
func (c *refCell) run(ctx context.Context) (err error) {
	eng, err := NewRoundEngine(c.cfg)
	if err != nil {
		return err
	}
	defer eng.e.leave(&err)
	step := eng.CommitStepMs()
	if err := eng.RegisterAt(step); err != nil {
		return err
	}
	res := eng.res
	for round := 1; round <= eng.e.cfg.Rounds; round++ {
		had := make([]int, len(res.Rounds))
		for s := range had {
			had[s] = len(res.Rounds[s])
		}
		if _, err := eng.RunRoundAt(ctx, round, float64(2*round)*step, float64(2*round+1)*step); err != nil {
			return err
		}
		got := refRound{stats: map[int]RoundStats{}, rows: map[int][]float64{}}
		for s, rr := range res.Rounds {
			if len(rr) > had[s] {
				got.stats[s] = rr[len(rr)-1]
				if rows := res.ComboAccuracy[s]; len(rows) > 0 {
					got.rows[s] = rows[len(rows)-1]
				}
			}
		}
		for _, p := range eng.e.peers {
			got.adopted = append(got.adopted, p.adopted)
		}
		c.got = append(c.got, got)
	}
	return nil
}

// diff names the first difference between the engine's round and the
// reference's: a RoundStats field or a combination row under ==, or an
// adopted weight bit for bit.
func (want refRound) diff(got refRound) string {
	if len(got.stats) != len(want.stats) {
		return fmt.Sprintf("%d participants decided, reference %d", len(got.stats), len(want.stats))
	}
	for _, s := range slices.Sorted(maps.Keys(want.stats)) {
		w := want.stats[s]
		g, ok := got.stats[s]
		if !ok {
			return fmt.Sprintf("slot %d did not decide", s)
		}
		for _, f := range []struct {
			name string
			eq   bool
		}{
			{"Round", g.Round == w.Round}, {"Included", g.Included == w.Included}, {"WaitMs", g.WaitMs == w.WaitMs},
			{"ComputeMs", g.ComputeMs == w.ComputeMs}, {"PropagateMs", g.PropagateMs == w.PropagateMs},
			{"CommitMs", g.CommitMs == w.CommitMs}, {"IdleMs", g.IdleMs == w.IdleMs},
			{"ChosenCombo", g.ChosenCombo == w.ChosenCombo}, {"ChosenAccuracy", g.ChosenAccuracy == w.ChosenAccuracy},
			{"Rejected", slices.Equal(g.Rejected, w.Rejected)},
		} {
			if !f.eq {
				return fmt.Sprintf("slot %d %s: engine %+v, reference %+v", s, f.name, g, w)
			}
		}
		if !slices.Equal(got.rows[s], want.rows[s]) {
			return fmt.Sprintf("slot %d combination row %v, reference %v", s, got.rows[s], want.rows[s])
		}
	}
	for s := range want.adopted {
		if len(got.adopted[s]) != len(want.adopted[s]) {
			return fmt.Sprintf("slot %d adopted %d weights, reference %d", s, len(got.adopted[s]), len(want.adopted[s]))
		}
		for i, v := range want.adopted[s] {
			if math.Float32bits(got.adopted[s][i]) != math.Float32bits(v) {
				return fmt.Sprintf("slot %d adopted weight %d = %v, reference %v", s, i, got.adopted[s][i], v)
			}
		}
	}
	return ""
}

// refDeadline fires after the on-time peers' updates are readable
// without commit latency and before the straggler's.
const refDeadline = 41 * time.Millisecond

// refGrid is one seed's cells: 4 backends × 4 policies on an IID world
// with commit latency off, the same on a Dirichlet(0.5) world whose
// peer C is fully label-flipped (filter 0.15, commit latency on, a
// network jitter), a second learning rate on the IID world, a filter
// of 0.02 on the skewed world (so that every seed rejects), and a
// fleet-poa-shaped subsampled poa fleet, on a world never Shared and
// again on the world it builds itself. Each other world is Shared by
// its cells; a reference serves every cell it is the same run for.
func refGrid(t *testing.T, seed uint64) []*refCell {
	h := fl.DefaultHyper(nn.ModelSimpleNN)
	h.LR, h.BatchSize, h.LocalEpochs = 0.02, 16, 5
	base := Config{Peers: 3, Rounds: 2, Seed: seed, TrainPerPeer: 200, SelectionSize: 80, TestPerPeer: 100, Hyper: h,
		StragglerFactor: []float64{1, 1, 3}, EvalAllCombos: true, Parallelism: 1}
	iid, skewed := base, base
	skewed.DirichletAlpha, skewed.PoisonPeer, skewed.PoisonFrac = 0.5, 2, 1
	skewed.Filter, skewed.CommitLatency = core.Filter{MaxBelowBest: 0.15}, true
	skewed.Network = simnet.Dist{Kind: simnet.DistExponential, Mean: 30}
	fleet := Config{Peers: 20, ClientFraction: 0.45, Rounds: 2, Seed: seed, TrainPerPeer: 200, SelectionSize: 80,
		TestPerPeer: 100, Hyper: h, Backend: "poa", CommitLatency: true, Parallelism: 2}

	type refKey struct {
		w     *World
		p     core.Policy
		h     fl.Hyper
		f     core.Filter
		every float64
		admit bool
	}
	refs := map[refKey]func() *reference{}
	refOf := func(k refKey, cfg Config) func() *reference {
		if f, ok := refs[k]; ok {
			return f
		}
		f := sync.OnceValue(func() *reference { return newReference(k.w, cfg, k.every, k.admit).run() })
		if pk := (refKey{k.w, k.p, k.h, k.f, k.every, true}); refs[pk] != nil && k.every == 0 {
			// Without commit latency pbft's run is this one unless it
			// rejected something: one reference serves both.
			pf, own := refs[pk], f
			f = sync.OnceValue(func() *reference {
				if r := pf(); r.tally.pbftRejected == 0 {
					return r
				}
				return own()
			})
		}
		refs[k] = f
		return f
	}

	var cells []*refCell
	half := func(name string, cfg Config, extra ...Config) {
		w, err := NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var mine []*refCell
		for _, b := range []string{"pow", "poa", "pbft", "instant"} {
			for _, p := range []core.Policy{{}, {K: 2}, {K: 1}, {Deadline: refDeadline}} {
				c := cfg
				c.Backend, c.Policy = b, p
				mine = append(mine, &refCell{name: fmt.Sprintf("%s/%s/%s", name, b, p.Name()), cfg: c})
			}
		}
		for _, c := range extra {
			mine = append(mine, &refCell{name: fmt.Sprintf("%s/%s/%s/lr=%g/filter=%g", name, c.Backend, c.Policy.Name(),
				c.Hyper.LR, c.Filter.MaxBelowBest), cfg: c})
		}
		w.Share(len(mine))
		for _, pbftFirst := range []bool{true, false} {
			for _, c := range mine {
				if pbftFirst != (c.cfg.Backend == "pbft") {
					continue
				}
				c.cfg.World = w
				every := 0.0
				if c.cfg.CommitLatency {
					every = refInterval[c.cfg.Backend]
				}
				c.ref = refOf(refKey{w: w, p: c.cfg.Policy, h: c.cfg.Hyper, f: c.cfg.Filter, every: every, admit: c.cfg.Backend == "pbft"}, c.cfg)
			}
		}
		cells = append(cells, mine...)
	}
	slow := iid
	slow.Backend, slow.Hyper.LR = "pow", 0.01
	tight := skewed
	tight.Backend, tight.Filter.MaxBelowBest = "pow", 0.02
	half("iid", iid, slow)
	half("skewed", skewed, tight)

	w, err := NewWorld(fleet)
	if err != nil {
		t.Fatal(err)
	}
	// The fleet twice: on w, never Shared, and building its own world,
	// Shared by its one run; the reference reads w, an equal world.
	solo := &refCell{name: "fleet/poa/wait-all/solo", cfg: fleet}
	fleet.World = w
	c := &refCell{name: "fleet/poa/wait-all", cfg: fleet}
	c.ref = refOf(refKey{w: w, h: h, every: refInterval["poa"]}, fleet)
	solo.ref = c.ref
	return append(cells, c, solo)
}

// TestReferenceRound holds the barriered engine to the reference round
// under ==, after every round, on every RoundStats field, every
// combination row and every peer's adopted weights: seeds 1–3, each
// seed's cells run two at a time on their shared worlds while the
// references read the same worlds. The grid must hold at least one of
// each event the rules have a branch for, so the test cannot pass on a
// happy path alone, and each seed a filter rejection, so that one
// seed's subtree runs the reject path too.
func TestReferenceRound(t *testing.T) {
	var total refTally
	ran := 0
	for seed := uint64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			ran++
			cells := refGrid(t, seed)
			par.ForEach(0, len(cells), func(i int) error {
				c := cells[i]
				if c.err = c.run(context.Background()); c.err == nil {
					c.ref()
				}
				return nil
			})
			counted := map[*reference]bool{}
			var tally refTally
			for _, c := range cells {
				if c.err != nil {
					t.Errorf("%s: %v", c.name, c.err)
					continue
				}
				ref := c.ref()
				if !counted[ref] {
					counted[ref] = true
					tally.add(ref.tally)
				}
				for r, want := range ref.rounds {
					if d := want.diff(c.got[r]); d != "" {
						t.Errorf("%s round %d: %s", c.name, r+1, d)
						break
					}
				}
			}
			t.Logf("seed %d: %+v", seed, tally)
			if tally.filtered == 0 {
				t.Error("the seed's cells hold no filter rejection")
			}
			total.add(tally)
		})
	}
	t.Logf("grid: %+v", total)
	if ran < 3 {
		return // a -run pattern chose some seeds; the counts are the whole grid's
	}
	for _, n := range []struct {
		what string
		n    int
	}{
		{"tie settled by the draw", total.ties},
		{"deadline firing before every participant was in", total.deadlineCuts},
		{"pbft rejection", total.pbftRejected},
		{"peer aggregating its own rejected update", total.ownRejected},
		{"filter rejection", total.filtered},
		{"decision past the 8-update cap", total.capped},
	} {
		if n.n == 0 {
			t.Errorf("the grid holds no %s", n.what)
		}
	}
}
