// Package keys wraps ECDSA P-256 key handling for the blockchain layer:
// key generation, address derivation, and deterministic payload
// signing/verification. Signatures are what give the paper's system its
// non-repudiation property — a peer cannot deny authorship of a model it
// submitted, because the submission transaction carries its signature.
package keys

import (
	"crypto"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/sha256"
	"encoding/asn1"
	"errors"
	"fmt"
	"math/big"
)

// AddressLen is the byte length of an account address.
const AddressLen = 20

// Address identifies an account: the trailing 20 bytes of the SHA-256 of
// the uncompressed public key (the Ethereum recipe with SHA-256 standing
// in for Keccak, which is outside the stdlib).
type Address [AddressLen]byte

// String renders the address as 0x-prefixed hex.
func (a Address) String() string { return fmt.Sprintf("0x%x", a[:]) }

// Short renders the first 4 bytes for logs.
func (a Address) Short() string { return fmt.Sprintf("0x%x", a[:4]) }

// IsZero reports whether the address is all zeroes (the "contract
// creation / system" address).
func (a Address) IsZero() bool { return a == Address{} }

// Key is a signing identity.
type Key struct {
	priv *ecdsa.PrivateKey
	pub  []byte // uncompressed SEC1 encoding, cached
	addr Address
}

func fromPrivate(priv *ecdsa.PrivateKey) *Key {
	pub := elliptic.Marshal(elliptic.P256(), priv.PublicKey.X, priv.PublicKey.Y)
	return &Key{priv: priv, pub: pub, addr: PubToAddress(pub)}
}

// PubToAddress derives the account address of an encoded public key.
func PubToAddress(pub []byte) Address {
	h := sha256.Sum256(pub)
	var a Address
	copy(a[:], h[len(h)-AddressLen:])
	return a
}

// Address returns the key's account address.
func (k *Key) Address() Address { return k.addr }

// PublicKey returns the uncompressed SEC1 public key bytes (callers must
// not mutate the result).
func (k *Key) PublicKey() []byte { return k.pub }

// Signature is an encoded ECDSA signature (r || s, 32 bytes each).
type Signature [64]byte

// Sign signs the SHA-256 digest of payload.
func (k *Key) Sign(payload []byte) (Signature, error) {
	digest := sha256.Sum256(payload)
	return k.SignDigest(digest)
}

// SignDigest signs a precomputed SHA-256 digest. Callers that can stream
// the message through a hasher avoid materializing the signing bytes.
// The nonce is RFC 6979's — a function of (key, digest), which is what
// a nil random source selects — so a signature, and with it every
// transaction hash, Merkle root and block hash of a run, is a function
// of the seed.
func (k *Key) SignDigest(digest [32]byte) (Signature, error) {
	der, err := k.priv.Sign(nil, digest[:], crypto.SHA256)
	if err != nil {
		return Signature{}, fmt.Errorf("keys: sign: %w", err)
	}
	var rs struct{ R, S *big.Int }
	if _, err := asn1.Unmarshal(der, &rs); err != nil {
		return Signature{}, fmt.Errorf("keys: sign: %w", err)
	}
	var sig Signature
	rs.R.FillBytes(sig[:32])
	rs.S.FillBytes(sig[32:])
	return sig, nil
}

// ErrBadSignature is returned when signature verification fails.
var ErrBadSignature = errors.New("keys: signature verification failed")

// Verify checks sig over payload against the encoded public key pub.
func Verify(pub []byte, payload []byte, sig Signature) error {
	return VerifyDigest(pub, sha256.Sum256(payload), sig)
}

// parsePub returns the ECDSA public key for an encoded SEC1 point, nil
// if malformed.
func parsePub(pub []byte) *ecdsa.PublicKey {
	x, y := elliptic.Unmarshal(elliptic.P256(), pub)
	if x == nil {
		return nil
	}
	return &ecdsa.PublicKey{Curve: elliptic.P256(), X: x, Y: y}
}

// VerifyDigest checks sig over a precomputed SHA-256 digest.
func VerifyDigest(pub []byte, digest [32]byte, sig Signature) error {
	pubKey := parsePub(pub)
	if pubKey == nil {
		return fmt.Errorf("%w: malformed public key", ErrBadSignature)
	}
	r := new(big.Int).SetBytes(sig[:32])
	s := new(big.Int).SetBytes(sig[32:])
	if !ecdsa.Verify(pubKey, digest[:], r, s) {
		return ErrBadSignature
	}
	return nil
}
