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
	"math"
	"sync"
	"sync/atomic"

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
// geometries in practice; when more keys than this churn through it (a
// run of forged headers, each naming a fresh seed), inserting one more
// evicts only the least recently used key, so the codecs in use stay.
const codecCacheMax = 256

// codecEntry is one cached codec and the codecClock tick of its last
// use. A hit only stores the tick, so the hit path takes no write lock.
type codecEntry struct {
	codec core.Codec
	used  atomic.Uint64
}

var (
	codecMu    sync.RWMutex
	codecCache = make(map[codecKey]*codecEntry)
	codecClock atomic.Uint64
)

// CachedForWire is ForWire through the process-wide codec cache — the
// hot path of both directions: the session layer encodes every object and
// opens every reassembly through it, so a sender and a receiver of one
// geometry in one process share one instance.
func CachedForWire(f wire.CodeFamily, k, n int, seed int64) (core.Codec, error) {
	key := codecKey{family: f, k: k, n: n, seed: seed}
	codecMu.RLock()
	e, ok := codecCache[key]
	codecMu.RUnlock()
	if ok {
		e.used.Store(codecClock.Add(1))
		return e.codec, nil
	}
	// Build outside the lock: constructions are deterministic in the
	// key, so concurrent builders may duplicate work, and the first
	// instance stored is the one every caller gets.
	c, err := ForWire(f, k, n, seed)
	if err != nil {
		return nil, err
	}
	codecMu.Lock()
	defer codecMu.Unlock()
	if e, ok := codecCache[key]; ok {
		e.used.Store(codecClock.Add(1))
		return e.codec, nil
	}
	if len(codecCache) >= codecCacheMax {
		var (
			oldest codecKey
			least  uint64 = math.MaxUint64
		)
		for key, e := range codecCache {
			if u := e.used.Load(); u < least {
				oldest, least = key, u
			}
		}
		delete(codecCache, oldest)
	}
	e = &codecEntry{codec: c}
	e.used.Store(codecClock.Add(1))
	codecCache[key] = e
	return c, nil
}
