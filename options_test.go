package waitornot

import (
	"context"
	"strings"
	"testing"
)

// TestOptionsValidateRejections is the table of configurations
// Validate must refuse: impossible policy parameters, negative counts,
// and poison fractions outside [0, 1].
func TestOptionsValidateRejections(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Options)
		wantSub string // substring the error must carry
	}{
		{"negative clients", func(o *Options) { o.Clients = -1 }, "client"},
		{"negative rounds", func(o *Options) { o.Rounds = -3 }, "round"},
		{"poison fraction above one", func(o *Options) { o.PoisonClient = 1; o.PoisonFraction = 1.5 }, "poison"},
		{"poison fraction negative", func(o *Options) { o.PoisonClient = 1; o.PoisonFraction = -0.1 }, "poison"},
		{"first-k with zero k", func(o *Options) { o.Policy = Policy{Kind: FirstK} }, "K >= 1"},
		{"first-k with negative k", func(o *Options) { o.Policy = Policy{Kind: FirstK, K: -2} }, "K >= 1"},
		{"timeout without deadline", func(o *Options) { o.Policy = Policy{Kind: Timeout} }, "TimeoutMs > 0"},
		{"timeout with negative deadline", func(o *Options) { o.Policy = Policy{Kind: Timeout, TimeoutMs: -5} }, "TimeoutMs > 0"},
		{"k-or-timeout with zero k", func(o *Options) { o.Policy = Policy{Kind: KOrTimeout, TimeoutMs: 100} }, "K >= 1"},
		{"k-or-timeout without deadline", func(o *Options) { o.Policy = Policy{Kind: KOrTimeout, K: 2} }, "TimeoutMs > 0"},
		{"unknown policy kind", func(o *Options) { o.Policy = Policy{Kind: PolicyKind(99)} }, "policy kind"},
		{"unknown model", func(o *Options) { o.Model = Model(99) }, "model"},
		{"client fraction negative", func(o *Options) { o.ClientFraction = -0.5 }, "client fraction"},
		{"client fraction above one", func(o *Options) { o.ClientFraction = 1.01 }, "client fraction"},
		{"client fraction with dirichlet", func(o *Options) { o.ClientFraction = 0.1; o.DirichletAlpha = 0.5 }, "DirichletAlpha"},
		{"shard smaller than a minibatch", func(o *Options) { o.TrainPerClient = 20 }, "20 training samples per peer is less than one minibatch of 32"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{Model: SimpleNN}
			tc.mutate(&opts)
			err := opts.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %+v", opts)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestOptionsValidateAccepts pins the configurations that must stay
// valid: the zero value (paper defaults), every well-formed policy,
// and the poison-fraction boundaries.
func TestOptionsValidateAccepts(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"zero value", Options{}},
		{"paper setup", Options{Model: SimpleNN, Clients: 3, Rounds: 10}},
		{"wait-all", Options{Policy: Policy{Kind: WaitAll}}},
		{"first-k", Options{Policy: Policy{Kind: FirstK, K: 1}}},
		{"timeout", Options{Policy: Policy{Kind: Timeout, TimeoutMs: 0.5}}},
		{"k-or-timeout", Options{Policy: Policy{Kind: KOrTimeout, K: 2, TimeoutMs: 100}}},
		{"poison fraction zero", Options{PoisonClient: 1, PoisonFraction: 0}},
		{"poison fraction one", Options{PoisonClient: 1, PoisonFraction: 1}},
		{"client fraction unset", Options{ClientFraction: 0}},
		{"client fraction full", Options{ClientFraction: 1}},
		{"cross-device fleet", Options{Clients: 1000, ClientFraction: 0.01}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.opts.Validate(); err != nil {
				t.Fatalf("Validate rejected %+v: %v", tc.opts, err)
			}
		})
	}
}

// TestRunRejectsInvalidPolicies proves Experiment.Run rejects bad
// policies instead of handing them to the engine.
func TestRunRejectsInvalidPolicies(t *testing.T) {
	opts := Options{Policy: Policy{Kind: FirstK, K: 0}}
	if _, err := New(opts).Run(context.Background()); err == nil {
		t.Fatal("decentralized run accepted first-0")
	}
	if _, err := New(Options{}, WithKind(KindTradeoff), WithPolicies(Policy{Kind: Timeout})).Run(context.Background()); err == nil {
		t.Fatal("trade-off run accepted a timeout policy with no deadline")
	}
}

// TestRunRejectsSubBatchShards: a training shard under one minibatch
// would train nothing (nn.TrainEpochScratch runs full batches only), so
// every entry path refuses it instead of reporting chance accuracy.
func TestRunRejectsSubBatchShards(t *testing.T) {
	for _, kind := range []Kind{KindVanilla, KindDecentralized, KindAsync, KindSharded, KindTradeoff} {
		opts := Options{Clients: 4, Rounds: 1, TrainPerClient: 20, SelectionSize: 8, TestPerClient: 8}
		_, err := New(opts, WithKind(kind)).Run(context.Background())
		if err == nil || !strings.Contains(err.Error(), "less than one minibatch of 32") {
			t.Errorf("%v run with 20-sample shards: err = %v", kind, err)
		}
	}
}
