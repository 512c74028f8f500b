package chain

import (
	"crypto/sha256"
	"testing"

	"waitornot/internal/keys"
)

// TestSigningBytesMatchesMemoizedDigest pins the two digest paths to
// each other: the streamed digest the memo caches must equal hashing
// the materialized SigningBytes, so signing, verification, and any
// external consumer of SigningBytes all agree on the message.
func TestSigningBytesMatchesMemoizedDigest(t *testing.T) {
	ks := testKeys(2)
	tx, err := NewTx(ks[0], 3, ks[1].Address(), 7, []byte("payload"), DefaultGasSchedule(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sha256.Sum256(tx.SigningBytes()), tx.memoized().digest; got != want {
		t.Fatal("SigningBytes digest diverges from the memoized streaming digest")
	}
	if err := keys.VerifyDigest(tx.PubKey, sha256.Sum256(tx.SigningBytes()), tx.Sig); err != nil {
		t.Fatalf("signature does not verify against SigningBytes: %v", err)
	}
}

// TestVerifyOnceCacheTamperRejected pins the verify-once cache's
// soundness argument: the cache is keyed by the full transaction hash,
// which commits to every signed field and the signature itself, so a
// tampered copy of an already-verified (cached) transaction can never
// inherit the cached verdict — it hashes differently, misses, and
// fails the real ECDSA check. The copy also carries the original's
// stale digest memo; the owner check must force a recompute rather
// than let the tampered bytes ride a pre-tamper digest — and the same
// owner check guards the decoded-payload slot (Decoded): a copy never
// reads the original's decoding.
func TestVerifyOnceCacheTamperRejected(t *testing.T) {
	ks := testKeys(3)
	base, err := NewTx(ks[0], 0, ks[1].Address(), 5, []byte("honest payload"), DefaultGasSchedule(), 1_000_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	// First call verifies and caches; second call takes the hit path.
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
		if err := cp.VerifySignature(); err == nil {
			t.Fatalf("%s-tampered copy of a cached-verified tx accepted", m.name)
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
