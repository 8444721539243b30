package symbol

import "fecperf/internal/obs"

// Pool accounting. The counters are always on — obs.Counter is one
// atomic add, so the packet path pays nothing measurable and Stats is
// truthful even when no registry was ever attached.
var (
	gets   obs.Counter // buffers handed out by Get/GetDirty/Clone
	puts   obs.Counter // buffers accepted back by Put
	misses obs.Counter // pool empty: a Get fell through to make
	jumbos obs.Counter // requests above MaxPooled, served unpooled
	live   obs.Gauge   // pooled-class buffers currently checked out
)

// Stats is a point-in-time view of the pool counters.
type Stats struct {
	Gets   uint64 // buffers handed out (all size classes)
	Puts   uint64 // buffers returned
	Misses uint64 // gets that had to allocate
	Jumbos uint64 // unpooled over-MaxPooled requests
	Live   int64  // pooled buffers currently checked out
}

// PoolStats returns the current pool counters.
func PoolStats() Stats {
	return Stats{
		Gets:   gets.Load(),
		Puts:   puts.Load(),
		Misses: misses.Load(),
		Jumbos: jumbos.Load(),
		Live:   live.Load(),
	}
}

// Register exposes the pool counters on r. The pool is process-global,
// so these are CounterFunc views rather than registry-owned counters;
// registering on several registries is fine.
func Register(r *obs.Registry) {
	if r == nil {
		return
	}
	r.CounterFunc("symbol_pool_gets_total", "Pooled symbol buffers handed out.", nil, gets.Load)
	r.CounterFunc("symbol_pool_puts_total", "Pooled symbol buffers returned.", nil, puts.Load)
	r.CounterFunc("symbol_pool_misses_total", "Buffer gets that allocated because the class was empty.", nil, misses.Load)
	r.CounterFunc("symbol_pool_jumbo_total", "Requests above MaxPooled served with plain make.", nil, jumbos.Load)
	r.GaugeFunc("symbol_live_buffers", "Pooled buffers currently checked out.", nil, live.Load)
}
