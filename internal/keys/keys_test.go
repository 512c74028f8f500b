package keys

import (
	"bytes"
	"errors"
	"testing"
)

func TestGenerateAndSignVerify(t *testing.T) {
	k := GenerateDeterministic(9)
	payload := []byte("model submission round 3")
	sig, err := k.Sign(payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(k.PublicKey(), payload, sig); err != nil {
		t.Fatalf("valid signature rejected: %v", err)
	}
	// RFC 6979: the signature is a function of (key, payload).
	if again, _ := k.Sign(payload); again != sig {
		t.Fatal("signing the same payload twice gave two signatures")
	}
	if other, _ := k.Sign([]byte("another payload")); other == sig {
		t.Fatal("two payloads share a signature")
	}
}

func TestVerifyRejectsTamperedPayload(t *testing.T) {
	k := GenerateDeterministic(1)
	payload := []byte("weights v1")
	sig, err := k.Sign(payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(k.PublicKey(), []byte("weights v2"), sig); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered payload accepted (err=%v)", err)
	}
}

func TestVerifyRejectsWrongKey(t *testing.T) {
	k1 := GenerateDeterministic(1)
	k2 := GenerateDeterministic(2)
	payload := []byte("hello")
	sig, err := k1.Sign(payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(k2.PublicKey(), payload, sig); !errors.Is(err, ErrBadSignature) {
		t.Fatal("wrong key accepted")
	}
}

func TestVerifyRejectsTamperedSignature(t *testing.T) {
	k := GenerateDeterministic(3)
	payload := []byte("hello")
	sig, err := k.Sign(payload)
	if err != nil {
		t.Fatal(err)
	}
	sig[0] ^= 0xff
	if err := Verify(k.PublicKey(), payload, sig); !errors.Is(err, ErrBadSignature) {
		t.Fatal("tampered signature accepted")
	}
}

func TestVerifyRejectsMalformedPublicKey(t *testing.T) {
	k := GenerateDeterministic(4)
	sig, _ := k.Sign([]byte("x"))
	if err := Verify([]byte{1, 2, 3}, []byte("x"), sig); !errors.Is(err, ErrBadSignature) {
		t.Fatal("malformed public key accepted")
	}
}

func TestSeededEntropyDeterministicKeys(t *testing.T) {
	k1 := GenerateDeterministic(42)
	k2 := GenerateDeterministic(42)
	if !bytes.Equal(k1.PublicKey(), k2.PublicKey()) {
		t.Fatal("same seed must give same key")
	}
	if k1.Address() != k2.Address() {
		t.Fatal("same seed must give same address")
	}
	k3 := GenerateDeterministic(43)
	if k1.Address() == k3.Address() {
		t.Fatal("different seeds must give different keys")
	}
}

func TestAddressDerivation(t *testing.T) {
	k := GenerateDeterministic(5)
	if got := PubToAddress(k.PublicKey()); got != k.Address() {
		t.Fatal("PubToAddress disagrees with Key.Address")
	}
	var zero Address
	if !zero.IsZero() {
		t.Fatal("zero address must report IsZero")
	}
	if k.Address().IsZero() {
		t.Fatal("real address must not be zero")
	}
	if k.Address().String() == "" || k.Address().Short() == "" {
		t.Fatal("address renderers must not be empty")
	}
}
