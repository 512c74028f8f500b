package contract

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"testing"
	"testing/quick"

	"waitornot/internal/chain"
	"waitornot/internal/keys"
)

func TestEncodeDecodeCallRoundTrip(t *testing.T) {
	cases := []struct {
		method string
		args   [][]byte
	}{
		{"submit", [][]byte{{1, 2}, {}, {3}}},
		{"register", [][]byte{[]byte("A")}},
		{"noargs", nil},
		{"", [][]byte{{0}}},
	}
	for _, tc := range cases {
		payload := EncodeCall(tc.method, tc.args...)
		m, args, err := DecodeCall(payload)
		if err != nil {
			t.Fatalf("%q: %v", tc.method, err)
		}
		if m != tc.method || len(args) != len(tc.args) {
			t.Fatalf("%q: decoded %q with %d args", tc.method, m, len(args))
		}
		for i := range args {
			if !bytes.Equal(args[i], tc.args[i]) {
				t.Fatalf("%q: arg %d mismatch", tc.method, i)
			}
		}
	}
}

func TestDecodeCallRejectsGarbage(t *testing.T) {
	bad := [][]byte{
		nil,
		{1},
		{255, 255, 0, 0},             // method length overruns
		append(EncodeCall("m"), 0x7), // trailing byte
	}
	for i, payload := range bad {
		if _, _, err := DecodeCall(payload); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestDecodeCallFuzzProperty(t *testing.T) {
	// DecodeCall must never panic on arbitrary bytes.
	check := func(payload []byte) bool {
		_, _, _ = DecodeCall(payload)
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestU64RoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 1 << 40, ^uint64(0)} {
		got, err := ParseU64(U64(v))
		if err != nil || got != v {
			t.Fatalf("u64 round trip %d -> %d (%v)", v, got, err)
		}
	}
	if _, err := ParseU64([]byte{1, 2}); err == nil {
		t.Fatal("short u64 accepted")
	}
}

// execTx runs a payload through the VM against st.
func execTx(t *testing.T, vm *VM, st *chain.State, k *keys.Key, to keys.Address, payload []byte) (uint64, []chain.Log, error) {
	t.Helper()
	tx := &chain.Transaction{To: to, Payload: payload, GasLimit: 1 << 40}
	if err := tx.Sign(k); err != nil {
		t.Fatal(err)
	}
	return vm.Execute(tx, st)
}

func TestRegistryRegisterAndRead(t *testing.T) {
	vm := NewVM(chain.DefaultGasSchedule())
	st := chain.NewState()
	ka := keys.GenerateDeterministic(1)
	kb := keys.GenerateDeterministic(2)

	gas, logs, err := execTx(t, vm, st, ka, RegistryAddress, RegisterCallData("A"))
	if err != nil {
		t.Fatal(err)
	}
	if gas == 0 {
		t.Fatal("registration must cost gas")
	}
	if len(logs) != 1 || logs[0].Topic != "Registered" {
		t.Fatalf("logs = %+v", logs)
	}
	if _, _, err := execTx(t, vm, st, kb, RegistryAddress, RegisterCallData("B")); err != nil {
		t.Fatal(err)
	}
	// Duplicate registration reverts.
	if _, _, err := execTx(t, vm, st, ka, RegistryAddress, RegisterCallData("A2")); err == nil {
		t.Fatal("duplicate registration accepted")
	}

	parts := Participants(st)
	if len(parts) != 2 || parts[0].Name != "A" || parts[1].Name != "B" {
		t.Fatalf("participants = %+v", parts)
	}
	if NameOf(st, ka.Address()) != "A" || NameOf(st, kb.Address()) != "B" {
		t.Fatal("NameOf resolution wrong")
	}
	if NameOf(st, keys.Address{9}) != "" {
		t.Fatal("unknown address must resolve empty")
	}
}

func TestRegistryRejectsBadArgs(t *testing.T) {
	vm := NewVM(chain.DefaultGasSchedule())
	st := chain.NewState()
	k := keys.GenerateDeterministic(3)
	if _, _, err := execTx(t, vm, st, k, RegistryAddress, EncodeCall("register")); err == nil {
		t.Fatal("missing name accepted")
	}
	if _, _, err := execTx(t, vm, st, k, RegistryAddress, EncodeCall("register", []byte{})); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, _, err := execTx(t, vm, st, k, RegistryAddress, EncodeCall("frobnicate")); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("unknown method: %v", err)
	}
}

func TestAggregationSubmitAndRead(t *testing.T) {
	vm := NewVM(chain.DefaultGasSchedule())
	st := chain.NewState()
	ka := keys.GenerateDeterministic(1)
	kb := keys.GenerateDeterministic(2)
	weights := []byte("pretend-weight-blob")

	if _, logs, err := execTx(t, vm, st, ka, AggregationAddress, SubmitCallData(3, 1, 500, weights)); err != nil {
		t.Fatal(err)
	} else if len(logs) != 1 || logs[0].Topic != "ModelSubmitted" {
		t.Fatalf("logs = %+v", logs)
	}
	if _, _, err := execTx(t, vm, st, kb, AggregationAddress, SubmitCallData(3, 1, 700, weights)); err != nil {
		t.Fatal(err)
	}
	// Duplicate (round, sender) reverts.
	if _, _, err := execTx(t, vm, st, ka, AggregationAddress, SubmitCallData(3, 1, 500, weights)); err == nil {
		t.Fatal("duplicate submission accepted")
	}
	// Different round is fine.
	if _, _, err := execTx(t, vm, st, ka, AggregationAddress, SubmitCallData(4, 1, 500, weights)); err != nil {
		t.Fatal(err)
	}

	subs := SubmissionsAt(st, 3)
	if len(subs) != 2 {
		t.Fatalf("%d submissions at round 3", len(subs))
	}
	wantHash := sha256.Sum256(weights)
	for _, s := range subs {
		if s.Round != 3 || s.WeightsHash != chain.Hash(wantHash) || s.PayloadSize != uint64(len(weights)) {
			t.Fatalf("submission = %+v", s)
		}
	}
	if len(SubmissionsAt(st, 99)) != 0 {
		t.Fatal("phantom submissions")
	}
}

func TestAggregationRecordDecision(t *testing.T) {
	vm := NewVM(chain.DefaultGasSchedule())
	st := chain.NewState()
	k := keys.GenerateDeterministic(5)
	var rh chain.Hash
	rh[0] = 0xaa

	if _, _, err := execTx(t, vm, st, k, AggregationAddress, RecordCallData(2, "A,B", rh, 2)); err != nil {
		t.Fatal(err)
	}
	decs := DecisionsAt(st, 2)
	if len(decs) != 1 {
		t.Fatalf("%d decisions", len(decs))
	}
	d := decs[0]
	if d.Combo != "A,B" || d.ResultHash != rh || d.NumIncluded != 2 || d.Peer != k.Address() {
		t.Fatalf("decision = %+v", d)
	}
}

func TestAggregationRejectsBadArgs(t *testing.T) {
	vm := NewVM(chain.DefaultGasSchedule())
	st := chain.NewState()
	k := keys.GenerateDeterministic(6)
	bad := [][]byte{
		EncodeCall("submit"),
		EncodeCall("submit", U64(1), U64(1), U64(1), nil),          // empty weights
		EncodeCall("submit", []byte{1}, U64(1), U64(1), []byte{1}), // short round
		EncodeCall("record", U64(1), []byte(""), make([]byte, 32), U64(1)),
		EncodeCall("record", U64(1), []byte("A"), []byte{1, 2}, U64(1)), // short hash
	}
	for i, payload := range bad {
		if _, _, err := execTx(t, vm, st, k, AggregationAddress, payload); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestSubmissionEncodingRoundTrip(t *testing.T) {
	s := &Submission{Round: 7, ModelID: 2, NumSamples: 123, PayloadSize: 456}
	s.Sender = keys.GenerateDeterministic(9).Address()
	s.WeightsHash[3] = 0x7
	s.TxHash[8] = 0x9
	got, err := decodeSubmission(s.encode())
	if err != nil {
		t.Fatal(err)
	}
	if *got != *s {
		t.Fatalf("round trip: %+v != %+v", got, s)
	}
	if _, err := decodeSubmission([]byte{1, 2, 3}); err == nil {
		t.Fatal("short submission accepted")
	}
}

func TestDecisionEncodingRoundTrip(t *testing.T) {
	d := &Decision{Round: 9, Combo: "A,B,C", NumIncluded: 3}
	d.Peer = keys.GenerateDeterministic(10).Address()
	d.ResultHash[1] = 0xee
	got, err := decodeDecision(d.encode())
	if err != nil {
		t.Fatal(err)
	}
	if *got != *d {
		t.Fatalf("round trip: %+v != %+v", got, d)
	}
	if _, err := decodeDecision(nil); err == nil {
		t.Fatal("nil decision accepted")
	}
}

func TestVMPlainTransferIgnoresPayload(t *testing.T) {
	vm := NewVM(chain.DefaultGasSchedule())
	st := chain.NewState()
	k := keys.GenerateDeterministic(11)
	other := keys.GenerateDeterministic(12).Address()
	gas, logs, err := execTx(t, vm, st, k, other, []byte("not a call"))
	if err != nil || gas != 0 || logs != nil {
		t.Fatalf("plain transfer: gas=%d logs=%v err=%v", gas, logs, err)
	}
}

func TestVMChargesGasForStorageAndLogs(t *testing.T) {
	gs := chain.DefaultGasSchedule()
	vm := NewVM(gs)
	st := chain.NewState()
	k := keys.GenerateDeterministic(13)
	small := SubmitCallData(1, 1, 1, []byte("x"))
	execSmall, _, err := execTx(t, vm, st, k, AggregationAddress, small)
	if err != nil {
		t.Fatal(err)
	}
	if execSmall <= gs.ContractOp {
		t.Fatal("submission must charge storage/log gas beyond dispatch")
	}
	// The contract stores only a fixed-size digest record, so execution
	// gas is size-independent; the per-byte cost of carrying the model
	// lives in the *intrinsic* calldata gas, as in the paper (ref [12]).
	st2 := chain.NewState()
	big := SubmitCallData(1, 1, 1, bytes.Repeat([]byte("y"), 1000))
	execBig, _, err := execTx(t, vm, st2, k, AggregationAddress, big)
	if err != nil {
		t.Fatal(err)
	}
	totalSmall := gs.Intrinsic(small) + execSmall
	totalBig := gs.Intrinsic(big) + execBig
	if totalBig <= totalSmall {
		t.Fatal("bigger model submission must cost more total gas")
	}
}

// TestEndToEndOnChain drives the contracts through the chain's rules:
// sign, select, mine, validate and execute under the block rule, read
// back from the post-state.
func TestEndToEndOnChain(t *testing.T) {
	gs := chain.DefaultGasSchedule()
	vm := NewVM(gs)
	cfg := chain.DefaultConfig()
	cfg.GenesisDifficulty = 4
	cfg.MinDifficulty = 1
	ka := keys.GenerateDeterministic(21)
	km := keys.GenerateDeterministic(22)
	st := chain.NewState()
	st.Account(ka.Address()).Balance = 1 << 62

	tx1, err := chain.NewTx(ka, 0, RegistryAddress, 0, RegisterCallData("A"), gs, 1_000_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	tx2, err := chain.NewTx(ka, 1, AggregationAddress, 0, SubmitCallData(1, 1, 42, []byte("w")), gs, 1_000_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The leader's side: select on a scratch state, seal, mine.
	parent := &chain.Genesis(cfg).Header
	h := chain.Header{ParentHash: parent.Hash(), Number: 1, Time: 1500, Miner: km.Address(), GasLimit: cfg.BlockGasLimit}
	txs, gasUsed := chain.SelectTxs(gs, st.Copy(), h.Miner, vm, []*chain.Transaction{tx1, tx2}, h.GasLimit)
	if len(txs) != 2 {
		t.Fatalf("selected %d txs, want 2", len(txs))
	}
	h.GasUsed, h.TxRoot = gasUsed, chain.MerkleRoot(txs)
	chain.SolvePoW(cfg, parent, &h)
	b := &chain.Block{Header: h, Txs: txs}
	// A replica's side: the block rule.
	if err := chain.ApplyBlock(cfg, parent, b, st, vm, chain.VerifyPoW); err != nil {
		t.Fatal(err)
	}
	if NameOf(st, ka.Address()) != "A" {
		t.Fatal("registration not visible on chain")
	}
	subs := SubmissionsAt(st, 1)
	if len(subs) != 1 || subs[0].TxHash != tx2.Hash() {
		t.Fatalf("submission not recorded: %+v", subs)
	}
	// The weights can be recovered from the carrying transaction.
	method, args, err := DecodeCall(b.Txs[1].Payload)
	if err != nil || method != "submit" {
		t.Fatal("cannot decode carried payload")
	}
	if !bytes.Equal(args[3], []byte("w")) {
		t.Fatal("weights not recoverable from calldata")
	}
}

// signedSubmit builds a signed submit(round 1) transaction carrying blob.
func signedSubmit(t *testing.T, k *keys.Key, blob []byte) *chain.Transaction {
	t.Helper()
	tx, err := chain.NewTx(k, 0, AggregationAddress, 0, SubmitCallData(1, 1, 42, blob), chain.DefaultGasSchedule(), 1_000_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

// TestSubmitDecodedOncePerTransaction is replica independence: one
// submit transaction executed against N fresh states yields N identical
// Submission records — every replica runs the call against its own
// state — from one parse and one digest of the weight blob. The
// sentinel proves the "one": after the first replica, the memoized
// digest is what later replicas record, not a fresh SHA-256.
func TestSubmitDecodedOncePerTransaction(t *testing.T) {
	vm := NewVM(chain.DefaultGasSchedule())
	blob := bytes.Repeat([]byte{0, 1, 2, 3}, 4096)
	tx := signedSubmit(t, keys.GenerateDeterministic(31), blob)
	want := chain.Hash(sha256.Sum256(blob))

	const replicas = 5
	var first *Submission
	for i := 0; i < replicas; i++ {
		st := chain.NewState()
		if _, _, err := vm.Execute(tx, st); err != nil {
			t.Fatal(err)
		}
		subs := SubmissionsAt(st, 1)
		if len(subs) != 1 || subs[0].WeightsHash != want || subs[0].TxHash != tx.Hash() {
			t.Fatalf("replica %d recorded %+v", i, subs)
		}
		if first == nil {
			first = subs[0]
		} else if *subs[0] != *first {
			t.Fatalf("replica %d's record differs from replica 0's", i)
		}
	}
	call, err := CallOf(tx)
	if again, _ := CallOf(tx); err != nil || again != call {
		t.Fatal("CallOf did not return the transaction's one decoded record")
	}
	if got, ok := call.SubmitBlob(); !ok || &got[0] != &tx.Payload[len(tx.Payload)-len(blob)] {
		t.Fatal("decoded blob does not alias the payload")
	}
	call.blobHash = chain.Hash{0xee} // in-package probe of the memo
	st := chain.NewState()
	if _, _, err := vm.Execute(tx, st); err != nil {
		t.Fatal(err)
	}
	if got := SubmissionsAt(st, 1)[0].WeightsHash; got != (chain.Hash{0xee}) {
		t.Fatalf("a later replica re-digested the blob: recorded %s", got.Short())
	}
}

// TestTamperedSubmitCopyRecordsItsOwnDigest is the decoded-call memo's
// soundness at payload level: a struct copy of an already-executed
// submit transaction with one weight byte flipped drags the original's
// memo along, must miss it, fail signature verification, and — if
// executed directly through the VM anyway — record the copy's digest,
// never the original's.
func TestTamperedSubmitCopyRecordsItsOwnDigest(t *testing.T) {
	vm := NewVM(chain.DefaultGasSchedule())
	blob := bytes.Repeat([]byte{7, 0, 9}, 1000)
	honest := signedSubmit(t, keys.GenerateDeterministic(32), blob)
	if _, _, err := vm.Execute(honest, chain.NewState()); err != nil {
		t.Fatal(err)
	}
	if err := honest.VerifySignature(); err != nil {
		t.Fatal(err)
	}

	forged := *honest
	forged.Payload = append([]byte(nil), honest.Payload...)
	forged.Payload[len(forged.Payload)-1] ^= 0x01
	if err := forged.VerifySignature(); err == nil {
		t.Fatal("tampered copy of an executed submit tx passed signature verification")
	}
	st := chain.NewState()
	if _, _, err := vm.Execute(&forged, st); err != nil {
		t.Fatal(err)
	}
	tampered := append([]byte(nil), blob...)
	tampered[len(tampered)-1] ^= 0x01
	got := SubmissionsAt(st, 1)[0]
	if got.WeightsHash != chain.Hash(sha256.Sum256(tampered)) {
		t.Fatal("tampered copy did not record its own blob's digest")
	}
	if got.WeightsHash == chain.Hash(sha256.Sum256(blob)) || got.TxHash == honest.Hash() {
		t.Fatal("tampered copy inherited the original's memo")
	}
	if c, _ := CallOf(honest); c.BlobHash() != chain.Hash(sha256.Sum256(blob)) {
		t.Fatal("original's memo corrupted by the tampered copy")
	}
}

// TestRoundReadsIgnoreOtherRounds pins SubmissionsAt/DecisionsAt's
// prefix-filtered listing: address order, this round only, however
// many other rounds' records the contract holds.
func TestRoundReadsIgnoreOtherRounds(t *testing.T) {
	vm := NewVM(chain.DefaultGasSchedule())
	st := chain.NewState()
	ks := []*keys.Key{keys.GenerateDeterministic(41), keys.GenerateDeterministic(42), keys.GenerateDeterministic(43)}
	for round := uint64(1); round <= 4; round++ {
		for _, k := range ks {
			if _, _, err := execTx(t, vm, st, k, AggregationAddress, SubmitCallData(round, 1, 5, []byte{byte(round)})); err != nil {
				t.Fatal(err)
			}
			if _, _, err := execTx(t, vm, st, k, AggregationAddress, RecordCallData(round, "A", chain.Hash{byte(round)}, 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	subs, decs := SubmissionsAt(st, 3), DecisionsAt(st, 3)
	if len(subs) != len(ks) || len(decs) != len(ks) {
		t.Fatalf("round 3 lists %d submissions, %d decisions, want %d each", len(subs), len(decs), len(ks))
	}
	for i := range subs {
		if subs[i].Round != 3 || decs[i].Round != 3 || subs[i].Sender != decs[i].Peer {
			t.Fatalf("entry %d is not round 3's: %+v / %+v", i, subs[i], decs[i])
		}
		if i > 0 && bytes.Compare(subs[i-1].Sender[:], subs[i].Sender[:]) >= 0 {
			t.Fatal("submissions not in sender-address order")
		}
	}
	if len(SubmissionsAt(st, 9)) != 0 || len(DecisionsAt(chain.NewState(), 1)) != 0 {
		t.Fatal("an empty round must list nothing")
	}
}
