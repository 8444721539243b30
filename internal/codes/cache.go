package codes

// Process-wide codec cache. Building a codec is far from free — the RSE
// families derive their generator matrices through a Vandermonde
// inversion, the LDGM families build a sparse parity-check matrix — and
// before this cache the session layer paid that construction once per
// *object*, which is exactly why session encode trailed the raw codec
// benchmarks by ~4×. Codec instances are immutable and safe for
// concurrent use (that is part of the core.Codec contract), so one
// instance per distinct geometry serves every session, sender and
// receiver in the process.

import (
	"sync"

	"fecperf/internal/core"
	"fecperf/internal/wire"
)

// codecKey identifies a codec: the integers on the wire.
type codecKey struct {
	family wire.CodeFamily
	k, n   int
	seed   int64
}

// codecCacheMax bounds the cache. A process talks to a handful of
// geometries in practice; when something pathological churns through
// more, the whole map is dropped and rebuilt — an occasional re-build
// beats unbounded growth.
const codecCacheMax = 256

var (
	codecMu    sync.RWMutex
	codecCache = make(map[codecKey]core.Codec)
)

// CachedForWire is ForWire through the process-wide codec cache — the
// hot path of both directions: the session layer encodes every object and
// opens every reassembly through it, so a sender and a receiver of one
// geometry in one process share one instance.
func CachedForWire(f wire.CodeFamily, k, n int, seed int64) (core.Codec, error) {
	key := codecKey{family: f, k: k, n: n, seed: seed}
	codecMu.RLock()
	c, ok := codecCache[key]
	codecMu.RUnlock()
	if ok {
		return c, nil
	}
	// Build outside the lock: constructions are deterministic in the
	// key, so concurrent builders producing duplicate instances is
	// harmless (last one wins).
	c, err := ForWire(f, k, n, seed)
	if err != nil {
		return nil, err
	}
	codecMu.Lock()
	if len(codecCache) >= codecCacheMax {
		codecCache = make(map[codecKey]core.Codec, codecCacheMax/4)
	}
	codecCache[key] = c
	codecMu.Unlock()
	return c, nil
}
