package symbol

import (
	"testing"

	"fecperf/internal/obs"
)

// TestPoolStats checks the always-on accounting: every pooled get/put
// moves the counters, jumbo requests are counted separately, and a
// registry sees the same numbers through Register.
func TestPoolStats(t *testing.T) {
	before := PoolStats()
	b := Get(512)
	c := Clone(b)
	Put(b)
	Put(c)
	Get(MaxPooled + 1) // jumbo, unpooled
	after := PoolStats()

	if d := after.Gets - before.Gets; d != 2 {
		t.Errorf("gets delta = %d, want 2", d)
	}
	if d := after.Puts - before.Puts; d != 2 {
		t.Errorf("puts delta = %d, want 2", d)
	}
	if d := after.Jumbos - before.Jumbos; d != 1 {
		t.Errorf("jumbos delta = %d, want 1", d)
	}
	if after.Live != before.Live {
		t.Errorf("live drifted: %d -> %d", before.Live, after.Live)
	}

	r := obs.NewRegistry("fecperf")
	Register(r)
	if v, ok := r.CounterValue("symbol_pool_gets_total", nil); !ok || v != after.Gets {
		t.Errorf("registry gets = %d, %v; want %d", v, ok, after.Gets)
	}
	if _, ok := r.GaugeValue("symbol_live_buffers", nil); !ok {
		t.Error("symbol_live_buffers not registered")
	}
	Register(nil) // must not panic
}
