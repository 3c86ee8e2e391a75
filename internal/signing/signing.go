// Package signing implements CARAT's binary signing (paper §2.2, §4.1):
// the compiler toolchain signs the produced module so the kernel can
// validate its provenance before loading it — the same trust scheme as
// .NET's signed CIL bytecode, realized here with ed25519 over the
// canonical textual form of the module.
package signing

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"

	"carat/internal/ir"
)

// Toolchain is a compiler identity: a signing key pair. A kernel trusts a
// set of toolchain public keys.
type Toolchain struct {
	Name string
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
}

// NewToolchain generates a toolchain identity using the given entropy
// source (crypto/rand.Reader in production, a seeded reader in tests).
func NewToolchain(name string, entropy io.Reader) (*Toolchain, error) {
	pub, priv, err := ed25519.GenerateKey(entropy)
	if err != nil {
		return nil, fmt.Errorf("signing: keygen: %w", err)
	}
	return &Toolchain{Name: name, pub: pub, priv: priv}, nil
}

// Public returns the toolchain's public key.
func (tc *Toolchain) Public() ed25519.PublicKey { return tc.pub }

// SignedModule is a module plus its provenance signature: the artifact the
// kernel receives ("Carat Binary (signed)" in Figure 1b).
type SignedModule struct {
	Module    *ir.Module
	Toolchain string
	Digest    [32]byte
	Sig       []byte
}

// digest hashes the module's canonical form, streamed from the IR's one
// encoder straight into the hash: the printed module's bytes, never held.
func digest(m *ir.Module) (d [32]byte) {
	h := sha256.New()
	_ = m.WriteCanonical(h) // hash.Hash's Write never returns an error
	h.Sum(d[:0])
	return d
}

// Sign produces the signed binary for m.
func (tc *Toolchain) Sign(m *ir.Module) *SignedModule {
	d := digest(m)
	return &SignedModule{
		Module:    m,
		Toolchain: tc.Name,
		Digest:    d,
		Sig:       ed25519.Sign(tc.priv, d[:]),
	}
}

// ErrUntrusted is returned when no trusted key validates the signature.
var ErrUntrusted = errors.New("signing: module not signed by a trusted toolchain")

// ErrTampered is returned when the module no longer matches its digest.
var ErrTampered = errors.New("signing: module digest mismatch (tampered after signing)")

// TrustStore is the kernel's set of trusted toolchain public keys.
type TrustStore struct {
	keys map[string]ed25519.PublicKey
}

// NewTrustStore returns an empty store.
func NewTrustStore() *TrustStore {
	return &TrustStore{keys: make(map[string]ed25519.PublicKey)}
}

// Trust adds a toolchain's public key.
func (ts *TrustStore) Trust(name string, pub ed25519.PublicKey) {
	ts.keys[name] = pub
}

// Verify checks that sm was signed by a trusted toolchain and that the
// module has not been modified since signing. This is the load-time check
// of §2.2 ("the kernel first validates the signature on the binary, and
// then decides whether to trust the compiler ... that built it"). It
// re-hashes the module on every call, even one signed a moment ago in this
// process: sm.Module is a live pointer, and trusting the carried digest
// would pass a module mutated after signing.
func (ts *TrustStore) Verify(sm *SignedModule) error {
	if digest(sm.Module) != sm.Digest {
		return ErrTampered
	}
	pub, ok := ts.keys[sm.Toolchain]
	if !ok {
		return fmt.Errorf("%w: unknown toolchain %q", ErrUntrusted, sm.Toolchain)
	}
	if !ed25519.Verify(pub, sm.Digest[:], sm.Sig) {
		return fmt.Errorf("%w: bad signature from %q", ErrUntrusted, sm.Toolchain)
	}
	return nil
}

// Fingerprint renders a short human-readable key fingerprint.
func Fingerprint(pub ed25519.PublicKey) string {
	h := sha256.Sum256(pub)
	return hex.EncodeToString(h[:8])
}
