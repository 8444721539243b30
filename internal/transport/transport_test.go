package transport

import (
	"math/rand"
	"testing"

	"fecperf/internal/session"
	"fecperf/internal/wire"
)

// newTestRand centralises RNG construction for the package's tests.
func newTestRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// testFile returns deterministic pseudo-random content.
func testFile(t testing.TB, size int, seed int64) []byte {
	t.Helper()
	data := make([]byte, size)
	newTestRand(seed).Read(data)
	return data
}

// sendOne writes one datagram through c's WriteBatch.
func sendOne(c Conn, d []byte) error {
	_, err := c.WriteBatch([]wire.Datagram{d})
	return err
}

// encodeTestObject FEC-encodes data with sensible broadcast defaults.
func encodeTestObject(t testing.TB, data []byte, id uint32, family wire.CodeFamily, ratio float64, payload int) *session.Object {
	t.Helper()
	obj, err := session.EncodeObject(data, session.SenderConfig{
		ObjectID:    id,
		Family:      family,
		Ratio:       ratio,
		PayloadSize: payload,
		Seed:        int64(id) + 1,
	})
	if err != nil {
		t.Fatalf("EncodeObject(%d): %v", id, err)
	}
	return obj
}
