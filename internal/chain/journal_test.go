package chain

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"waitornot/internal/keys"
)

// scriptOp is one write of a scriptProc: a storage Set when set is
// true, otherwise an Account access that bumps the balance and nonce.
type scriptOp struct {
	set   bool
	addr  keys.Address
	key   string
	value []byte
	delta uint64
}

// scriptProc is the journal tests' processor: it runs its writes in
// order, then charges gas and returns err — so a script can succeed,
// fail, or (with gas past the transaction's budget) run out of gas.
type scriptProc struct {
	ops []scriptOp
	gas uint64
	err error
}

func (p scriptProc) Execute(_ *Transaction, st *State) (uint64, []Log, error) {
	for _, op := range p.ops {
		if op.set {
			st.Set(op.addr, op.key, op.value)
			continue
		}
		acc := st.Account(op.addr)
		acc.Balance += op.delta
		acc.Nonce++
	}
	return p.gas, []Log{{Topic: "ran"}}, p.err
}

// byteStream hands out a fuzz input byte by byte, then zeros.
type byteStream []byte

func (b *byteStream) next() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

func journalAddr(i byte) keys.Address {
	var a keys.Address
	a[0], a[1] = 0xaa, i
	return a
}

// journalCase builds one ApplyTx case from data: a pre-state (a funded
// sender, some accounts, contracts with keys — nil values among them),
// a transaction, a miner that may or may not exist yet, and a script
// mixing every journaled write: overwrite a key, add a key, create a
// contract map, touch an existing account (the sender and miner
// included) or a new one.
func journalCase(data []byte) (pre *State, tx *Transaction, miner keys.Address, proc scriptProc) {
	r := byteStream(data)
	gs := DefaultGasSchedule()
	pre = NewState()
	sender := journalAddr(1)
	pre.Account(sender).Balance = 1 << 40
	pre.Account(sender).Nonce = uint64(r.next() % 3)
	miner = journalAddr(2)
	if r.next()%2 == 0 {
		pre.Account(miner).Balance = uint64(r.next())
	}
	accounts := []keys.Address{sender, miner}
	for i, n := byte(0), r.next()%4; i < n; i++ {
		a := journalAddr(10 + i)
		pre.Account(a).Balance = uint64(r.next()) << 8
		accounts = append(accounts, a)
	}
	value := func() []byte {
		if v := r.next(); v%4 != 0 {
			return []byte{v}
		}
		return nil
	}
	var contracts []keys.Address
	for c, n := byte(0), r.next()%3; c < n; c++ {
		addr := journalAddr(20 + c)
		contracts = append(contracts, addr)
		for k, n := byte(0), r.next()%4; k <= n; k++ {
			pre.Set(addr, string(rune('a'+k)), value())
		}
	}

	for n := r.next() % 8; n > 0; n-- {
		op := scriptOp{set: true, value: value()}
		switch sel := r.next() % 5; {
		case sel == 0 && len(contracts) > 0: // overwrite an existing key
			op.addr = contracts[int(r.next())%len(contracts)]
			ks := pre.Keys(op.addr)
			op.key = ks[int(r.next())%len(ks)]
		case sel <= 1 && len(contracts) > 0: // add a key
			op.addr = contracts[int(r.next())%len(contracts)]
			op.key = "new" + string(rune('0'+r.next()%3))
		case sel <= 2: // create a contract map (or write into one this script made)
			op.addr, op.key = journalAddr(30+r.next()%3), "k"
		case sel == 3: // touch an existing account
			op = scriptOp{addr: accounts[int(r.next())%len(accounts)], delta: uint64(r.next())}
		default: // touch a new one
			op = scriptOp{addr: journalAddr(40 + r.next()%3), delta: uint64(r.next())}
		}
		proc.ops = append(proc.ops, op)
	}

	const budget = 10_000
	payload := []byte{r.next(), 0, r.next()}
	tx = &Transaction{
		From:     sender,
		Nonce:    pre.Accounts[sender].Nonce,
		To:       journalAddr(20),
		Value:    uint64(r.next()%2) * 5,
		GasLimit: gs.Intrinsic(payload) + budget,
		GasPrice: 1 + uint64(r.next()%3),
		Payload:  payload,
	}
	switch r.next() % 3 {
	case 0:
		proc.gas = uint64(r.next()) * 10
	case 1:
		proc.gas, proc.err = uint64(r.next()), errors.New("revert: script")
	default:
		proc.gas = budget + 1 + uint64(r.next()) // out of gas
	}
	return pre, tx, miner, proc
}

// checkJournalCase runs one case through ApplyTx on a copy of the
// pre-state and holds the result to the snapshot semantics: a failed
// execution leaves exactly a pre-tx Copy with the fee, nonce and miner
// credit applied — no write, no created key, account or empty contract
// map left behind — and a successful one leaves the script applied to
// a Copy, then the same bookkeeping plus the value transfer.
func checkJournalCase(t *testing.T, data []byte) {
	t.Helper()
	pre, tx, miner, proc := journalCase(data)
	gs := DefaultGasSchedule()

	want := pre.Copy()
	gasUsed := gs.Intrinsic(tx.Payload) + proc.gas
	ok := proc.err == nil && gasUsed <= tx.GasLimit
	gasUsed = min(gasUsed, tx.GasLimit)
	if ok {
		proc.Execute(tx, want)
	}
	fee := gasUsed * tx.GasPrice
	sender := want.Account(tx.From)
	sender.Balance -= fee
	sender.Nonce++
	if ok && tx.Value > 0 {
		sender.Balance -= tx.Value
		want.Account(tx.To).Balance += tx.Value
	}
	want.Account(miner).Balance += fee

	st := pre.Copy()
	rec, err := ApplyTx(gs, st, tx, miner, proc)
	if err != nil {
		t.Fatalf("ApplyTx: %v", err)
	}
	if rec.GasUsed != gasUsed || (rec.Err == "") != ok || (len(rec.Logs) > 0) != ok {
		t.Fatalf("receipt %+v, want gas %d, success %v", rec, gasUsed, ok)
	}
	if !reflect.DeepEqual(st, want) {
		t.Fatalf("state after ApplyTx (success %v, %d ops) differs from the snapshot semantics:\n got  %v\n want %v",
			ok, len(proc.ops), dumpState(st), dumpState(want))
	}
}

func dumpState(s *State) map[string]any {
	out := map[string]any{"journal": s.journal != nil}
	for a, acc := range s.Accounts {
		out["acc "+a.String()] = *acc
	}
	for c, kv := range s.Storage {
		out["storage "+c.String()] = kv
	}
	return out
}

// TestApplyTxJournalMatchesSnapshot: over random pre-states and
// scripts, reverting by journal is the whole-state snapshot's revert.
func TestApplyTxJournalMatchesSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 64)
	for i := 0; i < 3000; i++ {
		rng.Read(data)
		checkJournalCase(t, data)
	}
}

// FuzzApplyTxRevert is TestApplyTxJournalMatchesSnapshot over the
// fuzzer's inputs.
func FuzzApplyTxRevert(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 7, 3, 9, 9, 9, 2, 1, 2, 3, 4, 7, 2, 0, 0, 3, 1, 5, 4, 2, 9, 2, 1, 1, 1, 1, 1, 1, 1})
	f.Fuzz(checkJournalCase)
}
