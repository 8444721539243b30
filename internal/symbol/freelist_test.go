package symbol

import (
	"runtime"
	"testing"
	"unsafe"
)

// drain empties every byte class and slab-table class, so a test starts
// from lists that hold nothing.
func drain() {
	for c := range classes {
		for {
			if _, ok := classes[c].pop(); !ok {
				break
			}
			unretain(1 << (minClassBits + c))
		}
	}
	for t := range tables {
		for {
			if _, ok := tables[t].pop(); !ok {
				break
			}
			unretain(viewBytes << t)
		}
	}
}

// TestPutSurvivesGC: a buffer Put stays in its class across garbage
// collections, and the next Get of the class hands out that very array.
func TestPutSurvivesGC(t *testing.T) {
	b := GetDirty(MaxPooled)
	Put(b)
	before := PoolStats()
	runtime.GC()
	runtime.GC()
	got := GetDirty(MaxPooled)
	defer Put(got)
	if unsafe.SliceData(got) != unsafe.SliceData(b) {
		t.Error("the buffer put last did not come back after two GCs")
	}
	if m := PoolStats().Misses - before.Misses; m != 0 {
		t.Errorf("Get after two GCs missed %d times, want 0", m)
	}
}

// TestRetainedBounded puts far more than the caps allow: a full class
// keeps classCap buffers, all classes together keep maxRetained bytes,
// and the counters stay exact for what was dropped as for what was kept.
func TestRetainedBounded(t *testing.T) {
	drain()
	defer drain()
	before := PoolStats()
	const extra = 16
	var bufs [][]byte
	for _, size := range []int{MaxPooled / 2, MaxPooled} {
		for range classCap + extra {
			bufs = append(bufs, GetDirty(size))
		}
	}
	if live := PoolStats().Live - before.Live; live != int64(len(bufs)) {
		t.Fatalf("%d buffers out, Live moved by %d", len(bufs), live)
	}
	PutAll(bufs)
	after := PoolStats()
	if after.Retained > maxRetained {
		t.Errorf("Retained = %d, above the %d cap", after.Retained, maxRetained)
	}
	// The half-size class fills to classCap (32 MiB), the top class to
	// the global cap.
	if want := int64(maxRetained); after.Retained != want {
		t.Errorf("Retained = %d, want the lists full at %d", after.Retained, want)
	}
	if n := len(classes[classOf(MaxPooled/2)].free); n != classCap {
		t.Errorf("half-size class holds %d buffers, want classCap %d", n, classCap)
	}
	if d := after.Puts - before.Puts; d != uint64(len(bufs)) {
		t.Errorf("Puts moved by %d, want %d (dropped buffers count too)", d, len(bufs))
	}
	if after.Live != before.Live {
		t.Errorf("Live drifted: %d -> %d", before.Live, after.Live)
	}
}

// TestSlabCycleAllocs: once the lists are warm, a slab's whole life —
// table, buffers and their return — allocates nothing.
func TestSlabCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; ceilings gate the plain tier")
	}
	cycle := func() {
		s := NewSlab(1536, 1064)
		for i := 0; i < s.Slots(); i += 61 {
			s.Draw(i)
		}
		s.Release()
	}
	cycle()
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("NewSlab → Draw → Release: %.1f allocs/op, want 0", avg)
	}
}

// TestViewPoolRecycles: a ViewPool hands back the table put last, box and
// all, and counts it as retained only while it is idle.
func TestViewPoolRecycles(t *testing.T) {
	var p ViewPool
	v := p.Get(100)
	(*v)[7] = []byte{1}
	start := PoolStats().Retained
	p.Put(v)
	if d := PoolStats().Retained - start; d != int64(viewBytes*cap(*v)) {
		t.Errorf("an idle table of %d views retains %d bytes", cap(*v), d)
	}
	w := p.Get(50)
	if w != v || len(*w) != 50 || (*w)[7] != nil {
		t.Errorf("Get after Put: same box %v, len %d, view 7 cleared %v", w == v, len(*w), (*w)[7] == nil)
	}
	if d := PoolStats().Retained - start; d != 0 {
		t.Errorf("a table in use still counted as retained: %d bytes", d)
	}
}
