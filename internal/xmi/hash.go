package xmi

import (
	"crypto/sha256"
	"encoding/hex"

	"prophet/internal/uml"
)

// HashPrefix tags every content address produced by this package.
const HashPrefix = "sha256:"

// HashBytes returns the content address of an already-canonical XMI
// document: "sha256:" plus the hex SHA-256 of the bytes. Callers holding
// arbitrary (non-canonical) XMI text should Decode and use Hash instead,
// so that formatting differences normalize away.
func HashBytes(text []byte) string {
	sum := sha256.Sum256(text)
	return HashPrefix + hex.EncodeToString(sum[:])
}

// Hash canonicalizes m through Encode and returns the content address of
// the result. Two models with identical canonical XMI hash identically;
// any in-place mutation that changes the persisted form changes the hash.
// It is the model id of the serving layer's model store.
func Hash(m *uml.Model) (string, error) {
	s, err := EncodeString(m)
	if err != nil {
		return "", err
	}
	return HashBytes([]byte(s)), nil
}
