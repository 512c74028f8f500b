# Build, verify, and benchmark the waitornot reproduction.
#
#   make ci        everything the repository gates on: build + gofmt
#                  over the tracked .go files + vet +
#                  tests under the coverage ratchet + the CLI smoke
#                  over the one -scenario path + the race-detector
#                  pass (test-race: all of internal/par, internal/chain,
#                  internal/keys, internal/ledger, internal/fl,
#                  internal/dataset and internal/xrand — the pool and the
#                  task set, the transaction memo's atomics, the only
#                  block store, the combination-search workers, the
#                  vanilla arm's pools and the one-sample-per-item
#                  generation pass with its stream jump-ahead — and the
#                  internal/bfl Async tests (async training off the
#                  clock) and TestWorld (one World read by ten
#                  concurrent runs), plus the root TestRaceSmoke* runs
#                  (the sweep's shared per-seed worlds among them);
#                  nothing else runs under -race) + the fuzz smoke over
#                  the chain codec, mempool and kernel bodies + the
#                  pure-Go kernel pin (internal/tensor and internal/nn
#                  tested under GOARCH=386, which builds the Go loops
#                  instead of the SSE2 bodies, and vetted under
#                  GOARCH=arm64) + the campaign crash-recovery smoke
#                  (SIGKILL + resume).
#   make benchmark the repo benchmark (BENCHMARK.json; ~4 min, not in ci):
#                  the basis for every performance claim.
#   make bench     the go test -bench probes, one iteration each.
#   make size      the tracked size numbers (ROADMAP aim 2); the root
#                  package's exported surface itself is pinned by
#                  testdata/api.golden (TestPublicAPIGolden), the
#                  exported internal/ names no other product file uses
#                  by testdata/testonly.golden
#                  (TestNoNewTestOnlyProductCode).

GO ?= go

# The coverage ratchet: cover fails if total statement coverage drops
# below this. The same value is recorded in .github/workflows/ci.yml
# (env on the make step); raise both as coverage grows — the measured
# total minus 1.5 points (83.5% at PR 17).
COVER_MIN ?= 82.0
COVER_OUT ?= cover.out

# Fuzz smoke budget per target (a real campaign runs
# `go test -fuzz <target> ./internal/chain/` open-ended).
FUZZTIME ?= 5s

.PHONY: build fmt-check vet test cover cli-smoke test-race fuzz-smoke generic-kernels campaign-smoke bench benchmark profile profile-train profile-setup size ci

build:
	$(GO) build ./...

# Formatting gate: gofmt -l over the tracked .go files must print
# nothing.
fmt-check:
	@out=$$(git ls-files '*.go' | xargs gofmt -l); \
	    [ -z "$$out" ] || { echo "gofmt needed on:"; echo "$$out"; exit 1; }

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Coverage-gated test run: the full suite once, with -coverprofile,
# failing if the total slips under the ratchet. ci uses this as its
# single (non-race) test pass.
cover:
	$(GO) test -coverprofile=$(COVER_OUT) ./...
	@total=$$($(GO) tool cover -func=$(COVER_OUT) | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "total coverage $$total% (ratchet: >= $(COVER_MIN)%)"; \
	awk -v got=$$total -v min=$(COVER_MIN) 'BEGIN { exit got+0 < min+0 ? 1 : 0 }' || \
	    { echo "coverage ratchet failed: $$total% < $(COVER_MIN)%"; exit 1; }

# CLI smoke: the one remaining way in, end to end — list the registry,
# a single run, a replication sweep — and the retired -exp selector
# must be a usage error (exit 2), not a silent default.
cli-smoke:
	$(GO) run ./cmd/repro -scenarios
	$(GO) run ./cmd/repro -scenario paper-repro -fast -rounds 1 -quiet
	$(GO) run ./cmd/repro -scenario stragglers -fast -rounds 1 -replications 2 -quiet
	@$(GO) build -o .repro.smoke ./cmd/repro; ./.repro.smoke -exp all >/dev/null 2>&1; status=$$?; rm -f .repro.smoke; \
	    [ $$status -eq 2 ] || { echo "cli-smoke: -exp all exited $$status, want 2"; exit 1; }

# Fuzz smoke: a few seconds per fuzz target, enough to catch shallow
# regressions in the chain codec, the mempool, the weight-payload
# codec, the pbft model verifier and the kernel bodies (bit-equal to
# their scalar reference loops) on every CI run.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzChainCodec -fuzztime $(FUZZTIME) ./internal/chain/
	$(GO) test -run '^$$' -fuzz FuzzMempoolSubmit -fuzztime $(FUZZTIME) ./internal/chain/
	$(GO) test -run '^$$' -fuzz FuzzPayloadCodec -fuzztime $(FUZZTIME) ./internal/nn/
	$(GO) test -run '^$$' -fuzz FuzzPBFTVerify -fuzztime $(FUZZTIME) ./internal/ledger/
	$(GO) test -run '^$$' -fuzz FuzzKernelsBitEqual -fuzztime $(FUZZTIME) ./internal/tensor/

# The pure-Go kernel loops every GOARCH but amd64 builds
# (internal/tensor/kernels_generic.go) are run, not just compiled:
# 386 binaries run on an amd64 host, and TestTrainedBitsGolden holds
# them to the golden the SSE2 bodies meet. arm64 is vetted only.
generic-kernels:
	GOARCH=386 $(GO) test ./internal/tensor/ ./internal/nn/
	GOARCH=arm64 $(GO) vet ./internal/tensor/ ./internal/nn/

# Campaign smoke: the crash-recovery acceptance test end to end — a
# tiny campaign run in a child process, SIGKILLed the instant its log
# holds a durable record, then resumed and diffed byte-for-byte
# against the uninterrupted sweep's tables (campaign_test.go).
campaign-smoke:
	$(GO) test -run 'TestCampaignSIGKILLRecovery|TestCampaignResumeAfterCancel|TestCampaignResumeMidSeed|TestCampaignResumeTornTail' -count=1 .

# Race pass — exactly these paths run under the detector: the
# internal/par pool and task set, internal/chain and internal/keys in full (the
# per-transaction memo — digest, hash, signature verdict, decoded call —
# is lock-free atomics shared by every replica), internal/ledger in
# full (the only block store: its read views are called from the
# parallel decide pool), internal/fl in full (the combination-search
# worker pool and the vanilla arm's par pools; ~16 s with the build),
# internal/dataset and internal/xrand in full (GenerateSets draws every
# sample of every set as its own par item from a jumped-ahead stream),
# the internal/bfl tests matching Async (async local training runs on
# par.Tasks workers between a round's opening and completion events)
# and TestWorld (one World read by eight engines and two async runs at
# once); ~30 s — only these, because the whole package takes over two
# minutes under -race and its other parallel paths are the pools
# covered above — plus short parallel runs of the decentralized
# experiment, the trade-off sweep, a sweep whose cells share each
# seed's world, the async engine under a time budget, shared
# transactions across six ledgers, and the simulators (TestRaceSmoke*
# in race_test.go).
test-race:
	$(GO) test -race ./internal/par/ ./internal/chain/ ./internal/keys/ ./internal/ledger/ ./internal/fl/ \
	    ./internal/dataset/ ./internal/xrand/
	$(GO) test -race -run 'Async|TestWorld' ./internal/bfl/
	$(GO) test -race -run 'TestRaceSmoke' .

bench:
	$(GO) test -bench . -benchtime 1x ./...

# The repo benchmark: four workloads, end-to-end metrics untraced and
# per-layer metrics traced (benchmark/README.md). Compare two result
# sets with `go run ./benchmark -compare a.json b.json`.
benchmark:
	$(GO) run ./benchmark

# CPU + allocation profiles of the ledger hot path at model scale
# (gossip validation, sealing, replicated contract execution, view
# reads over SimpleNN-size submit txs) — the path DESIGN.md §12 was
# tuned on: go tool pprof -top cpu.prof / -sample_index=alloc_space
# mem.prof.
profile:
	$(GO) test -run '^$$' -bench 'BenchmarkLedgerHotPath' -benchtime 20x \
	    -cpuprofile cpu.prof -memprofile mem.prof .
	@echo "wrote cpu.prof, mem.prof — inspect with: $(GO) tool pprof -top cpu.prof"

# The same two profiles for one SimpleNN training minibatch (forward,
# loss, backward, SGD step on one core) — the path DESIGN.md §13 was
# tuned on.
profile-train:
	$(GO) test -run '^$$' -bench 'BenchmarkSimpleNNTrainBatch' -benchtime 300x -cpu 1 \
	    -cpuprofile cpu.prof -memprofile mem.prof ./internal/nn/
	@echo "wrote cpu.prof, mem.prof — inspect with: $(GO) tool pprof -top cpu.prof"

# The same two profiles for set-up: one bfl.NewWorld at the paper-sync
# workload's sizes (3 peers, 600/60/160 samples) on one core and on
# two, so the two ns/op lines give the generation pass's speed-up and
# the profile dataset generation's share of set-up (DESIGN.md §5).
profile-setup:
	$(GO) test -run '^$$' -bench 'BenchmarkNewWorldPaperSync' -benchtime 20x -cpu 1,2 \
	    -cpuprofile cpu.prof -memprofile mem.prof ./internal/bfl/
	@echo "wrote cpu.prof, mem.prof — inspect with: $(GO) tool pprof -top cpu.prof"

# The numbers ROADMAP tracks for "least code": non-test Go lines
# outside benchmark/, the root package's exported funcs + types (the
# line count of testdata/api.golden), its functional options and
# Options fields (the run-description surface), cmd/repro's flags,
# process-global caches (mutex-guarded package state) left on the
# transaction path, and the exported internal/ names no other product
# file uses (the line count of testdata/testonly.golden).
size:
	@echo "non-test Go lines outside benchmark/: $$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' | xargs cat | wc -l)"
	@echo "root exported funcs+types: $$($(GO) doc -all . | grep -cE '^(func|type) ')"
	@echo "functional options: $$(cat *.go | grep -c '^func With')"
	@echo "Options fields: $$($(GO) doc . Options | awk '/^type Options struct/,/^}/' | grep -cE '^	[A-Z][A-Za-z0-9]* ')"
	@echo "cmd/repro flags: $$(grep -c 'flag\.[A-Z][A-Za-z0-9]*Var(\|flag\.String(' cmd/repro/main.go)"
	@echo "process-global caches in internal/chain + internal/keys: $$(find internal/chain internal/keys -name '*.go' ! -name '*_test.go' | xargs cat | grep -c '^\s*sync\.RWMutex')"
	@echo "test-only exported identifiers under internal/: $$(wc -l < testdata/testonly.golden)"

ci: build fmt-check vet cover cli-smoke test-race fuzz-smoke generic-kernels campaign-smoke
