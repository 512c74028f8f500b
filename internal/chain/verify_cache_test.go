package chain

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"testing"

	"waitornot/internal/keys"
)

// TestSigningBytesMatchesMemoizedDigest pins the streamed digest to the
// bytes it streams: the digest the memo caches must equal hashing the
// materialized signing encoding, whose length signingSize predicts, and
// the signature must verify against it.
func TestSigningBytesMatchesMemoizedDigest(t *testing.T) {
	ks := testKeys(2)
	tx, err := NewTx(ks[0], 3, ks[1].Address(), 7, []byte("payload"), DefaultGasSchedule(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	var signing bytes.Buffer
	tx.writeSigning(&signing)
	if signing.Len() != tx.signingSize() {
		t.Fatalf("signing encoding is %d bytes, signingSize says %d", signing.Len(), tx.signingSize())
	}
	if got, want := sha256.Sum256(signing.Bytes()), tx.memoized().digest; got != want {
		t.Fatal("signing-bytes digest diverges from the memoized streaming digest")
	}
	if err := keys.VerifyDigest(tx.PubKey, sha256.Sum256(signing.Bytes()), tx.Sig); err != nil {
		t.Fatalf("signature does not verify against the signing bytes: %v", err)
	}
}

// TestVerifyOnceCacheTamperRejected pins the verify-once verdict's
// soundness argument: the verdict lives on the owner-checked memo of
// the transaction value that passed the ECDSA check, so a tampered copy
// of an already-verified transaction can never inherit it — the copy
// drags the memo pointer along, the owner check misses, the digest is
// recomputed over the tampered bytes, and the real check fails, on
// every call. The same owner check guards the decoded-payload slot
// (Decoded): a copy never reads the original's decoding. And only a
// passed check leaves a verdict: a transaction that fails keeps
// failing through the same pointer.
func TestVerifyOnceCacheTamperRejected(t *testing.T) {
	ks := testKeys(3)
	base, err := NewTx(ks[0], 0, ks[1].Address(), 5, []byte("honest payload"), DefaultGasSchedule(), 1_000_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A failed verification leaves no verdict: the same pointer fails
	// on every call, never starting to pass.
	bad := *base
	bad.Sig[7] ^= 0x01
	for i := 0; i < 4; i++ {
		if err := bad.VerifySignature(); err == nil {
			t.Fatalf("bad-signature tx accepted on call %d", i)
		}
	}
	// First call verifies and records; second call takes the hit path.
	for i := 0; i < 2; i++ {
		if err := base.VerifySignature(); err != nil {
			t.Fatalf("honest tx rejected on pass %d: %v", i, err)
		}
	}
	decodes := 0
	decode := func(payload []byte) any { decodes++; return string(payload) }
	for i := 0; i < 2; i++ {
		if got := base.Decoded(decode); got != "honest payload" || decodes != 1 {
			t.Fatalf("pass %d: Decoded = %q after %d decodes, want one shared decode", i, got, decodes)
		}
	}
	mutations := []struct {
		name   string
		mutate func(*Transaction)
	}{
		{"payload", func(tx *Transaction) {
			tx.Payload = append(append([]byte(nil), tx.Payload...), 0xff)
		}},
		{"value", func(tx *Transaction) { tx.Value++ }},
		{"nonce", func(tx *Transaction) { tx.Nonce++ }},
		{"to", func(tx *Transaction) { tx.To = ks[2].Address() }},
		{"gasprice", func(tx *Transaction) { tx.GasPrice++ }},
		{"from", func(tx *Transaction) { tx.From = ks[2].Address() }},
		{"pubkey", func(tx *Transaction) {
			tx.PubKey = append([]byte(nil), ks[2].PublicKey()...)
		}},
		{"sig", func(tx *Transaction) { tx.Sig[0] ^= 0xff }},
	}
	for _, m := range mutations {
		cp := *base
		m.mutate(&cp)
		// The verdict is per owner: the copy fails, and keeps failing
		// once it has a memo of its own.
		for i := 0; i < 2; i++ {
			if err := cp.VerifySignature(); err == nil {
				t.Fatalf("%s-tampered copy of a verified tx accepted on call %d", m.name, i)
			}
		}
		// The copy dragged the memo pointer along; it must miss and
		// decode its own payload, never serve the original's.
		before := decodes
		if got := cp.Decoded(decode); got != string(cp.Payload) || decodes != before+1 {
			t.Fatalf("%s-tampered copy read a decoding it did not compute: %q", m.name, got)
		}
	}
	if got := base.Decoded(decode); got != "honest payload" {
		t.Fatalf("original's decoding corrupted by the tamper loop: %q", got)
	}
	// Tampering through copies never corrupts the original's verdict.
	if err := base.VerifySignature(); err != nil {
		t.Fatalf("honest tx rejected after tamper attempts: %v", err)
	}
	if keys.PubToAddress(base.PubKey) != base.From {
		t.Fatal("honest tx mutated by the tamper loop")
	}
}

// TestIntrinsicMemoStructCopyPricesOwnBytes: intrinsic gas is priced
// from the owner-checked memo, so a struct copy of a memoized
// transaction with one payload byte flipped between zero and non-zero
// (and re-signed, so only the price can tell) prices its own bytes in
// both ValidateBasic and ApplyTx — never the original's count.
func TestIntrinsicMemoStructCopyPricesOwnBytes(t *testing.T) {
	gs := DefaultGasSchedule()
	ks := testKeys(2)
	step := gs.PayloadNonZeroByte - gs.PayloadZeroByte
	for _, flip := range []struct {
		name     string
		from, to byte
	}{{"zero to non-zero", 0, 7}, {"non-zero to zero", 7, 0}} {
		// The gas limit is exactly the original's intrinsic gas.
		orig, err := NewTx(ks[0], 0, ks[1].Address(), 0, []byte{1, flip.from, 2}, gs, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := orig.ValidateBasic(gs); err != nil { // memoizes
			t.Fatal(err)
		}
		cp := *orig
		cp.Payload = []byte{1, flip.to, 2}
		if err := cp.Sign(ks[0]); err != nil {
			t.Fatal(err)
		}
		st := NewState()
		st.Account(ks[0].Address()).Balance = 1 << 30
		err = cp.ValidateBasic(gs)
		rec, applyErr := ApplyTx(gs, st, &cp, ks[1].Address(), NopProcessor{})
		if flip.to != 0 {
			// One more non-zero byte: the copy no longer affords its gas.
			if !errors.Is(err, ErrGasTooLow) || !errors.Is(applyErr, ErrGasTooLow) {
				t.Errorf("%s: ValidateBasic %v, ApplyTx %v; want ErrGasTooLow from both", flip.name, err, applyErr)
			}
			continue
		}
		if err != nil || applyErr != nil {
			t.Fatalf("%s: ValidateBasic %v, ApplyTx %v", flip.name, err, applyErr)
		}
		if want := orig.GasLimit - step; rec.GasUsed != want {
			t.Errorf("%s: copy charged %d gas, its own bytes price %d", flip.name, rec.GasUsed, want)
		}
	}
}
