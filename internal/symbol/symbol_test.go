package symbol

import (
	"testing"
)

func TestGetLengthAndZeroing(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000, 1024, 4096, MaxPooled, MaxPooled + 1} {
		b := Get(n)
		if len(b) != n {
			t.Fatalf("Get(%d) returned len %d", n, len(b))
		}
		for i := range b {
			if b[i] != 0 {
				t.Fatalf("Get(%d) not zeroed at %d", n, i)
			}
		}
		// Dirty it and recycle; the next Get of the same class must be
		// zeroed again even if it reuses this buffer.
		for i := range b {
			b[i] = 0xff
		}
		Put(b)
		b2 := Get(n)
		for i := range b2 {
			if b2[i] != 0 {
				t.Fatalf("recycled Get(%d) not zeroed at %d", n, i)
			}
		}
	}
}

func TestClassRounding(t *testing.T) {
	cases := []struct{ n, wantCap int }{
		{1, 64}, {64, 64}, {65, 128}, {1000, 1024}, {1024, 1024}, {1025, 2048},
	}
	for _, c := range cases {
		if got := cap(Get(c.n)); got != c.wantCap {
			t.Errorf("Get(%d) cap = %d, want %d", c.n, got, c.wantCap)
		}
	}
	if got := cap(Get(MaxPooled + 1)); got != MaxPooled+1 {
		t.Errorf("jumbo Get cap = %d, want exact %d", got, MaxPooled+1)
	}
}

func TestClone(t *testing.T) {
	src := []byte{1, 2, 3, 4, 5}
	c := Clone(src)
	if string(c) != string(src) {
		t.Fatalf("Clone = %v, want %v", c, src)
	}
	c[0] = 99
	if src[0] != 1 {
		t.Fatal("Clone aliases its source")
	}
	if c := Clone(nil); len(c) != 0 {
		t.Fatalf("Clone(nil) len = %d", len(c))
	}
}

func TestPutForeignCapacityIgnored(t *testing.T) {
	// Odd capacities must not enter a class (they would corrupt the
	// class-size invariant Get relies on).
	Put(make([]byte, 100))          // cap 100: not a class size
	Put(make([]byte, 0, MaxPooled)) // fine: exact class
	Put(nil)
	b := Get(100)
	if cap(b) != 128 {
		t.Fatalf("pool handed out a foreign-capacity buffer: cap=%d", cap(b))
	}
}

func TestPutAll(t *testing.T) {
	bs := [][]byte{Get(10), nil, Get(20)}
	PutAll(bs)
	for i, b := range bs {
		if b != nil {
			t.Fatalf("PutAll left entry %d non-nil", i)
		}
	}
}

func TestGetNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Get(-1) did not panic")
		}
	}()
	Get(-1)
}

// BenchmarkGetPut demonstrates the zero-allocation steady state: the
// buffer recycles through its class's free list.
func BenchmarkGetPut(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := Get(1024)
		Put(buf)
	}
}

func BenchmarkMakeBaseline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := make([]byte, 1024)
		_ = buf
	}
}

// TestSlabLayout checks the slot geometry for strides that divide the top
// class, that leave a gap at the end of each buffer, and that exceed it:
// slots never overlap, are capped at their stride, and the slot stream
// reads back through Segments exactly as written.
func TestSlabLayout(t *testing.T) {
	for _, tc := range []struct{ slots, stride int }{
		{1, 48}, {2, 48}, {384, 1064}, {3072, 168}, {2048, 128}, {100, 1400}, {3, MaxPooled + 8}, {0, 16},
	} {
		start := PoolStats().Live
		s := NewSlab(tc.slots, tc.stride)
		if s.Slots() != tc.slots {
			t.Fatalf("%+v: Slots = %d", tc, s.Slots())
		}
		var want []byte
		for i := 0; i < tc.slots; i++ {
			slot := s.Draw(i)
			if len(slot) != tc.stride || cap(slot) != tc.stride {
				t.Fatalf("%+v: slot %d len/cap = %d/%d", tc, i, len(slot), cap(slot))
			}
			for j := range slot {
				slot[j] = byte(i*7 + j)
			}
			want = append(want, slot...)
		}
		for i := 0; i < tc.slots; i++ { // a later slot's write must not have reached an earlier one
			if slot := s.Slot(i); slot[0] != byte(i*7) || slot[tc.stride-1] != byte(i*7+tc.stride-1) {
				t.Fatalf("%+v: slot %d overwritten", tc, i)
			}
		}
		for _, r := range [][2]int{{0, len(want)}, {8, len(want) - 8}, {len(want) / 3, len(want) / 2}} {
			if r[1] <= 0 {
				continue
			}
			var got []byte
			for seg := range s.Segments(r[0], r[1]) {
				got = append(got, seg...)
			}
			if string(got) != string(want[r[0]:r[0]+r[1]]) {
				t.Fatalf("%+v: Segments(%d,%d) differs from the slot stream", tc, r[0], r[1])
			}
		}
		s.Release()
		s.Release() // idempotent
		if live := PoolStats().Live; live != start {
			t.Fatalf("%+v: %d buffers live after Release", tc, live-start)
		}
	}
}

// TestSlabLazy: a slab's memory follows the slots touched, not the slot
// count — the property that keeps a forged "huge object" header cheap.
func TestSlabLazy(t *testing.T) {
	start := PoolStats()
	s := NewSlab(262144, 2008)
	if got := PoolStats().Gets - start.Gets; got != 0 {
		t.Fatalf("NewSlab drew %d buffers, want 0", got)
	}
	s.Draw(100000)
	s.Draw(100001)
	if got := PoolStats().Gets - start.Gets; got != 1 {
		t.Fatalf("two neighbouring slots drew %d buffers, want 1", got)
	}
	// Slot reads what Draw made and never draws: an untouched buffer is
	// a panic, not a silent allocation on a read path.
	if len(s.Slot(100001)) != 2008 {
		t.Fatal("Slot of a drawn buffer has the wrong length")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Slot of an undrawn buffer did not panic")
			}
		}()
		s.Slot(5)
	}()
	if got := PoolStats().Gets - start.Gets; got != 1 {
		t.Fatalf("Slot drew a buffer: %d gets, want 1", got)
	}
	s.Release()
	if live := PoolStats().Live; live != start.Live {
		t.Fatalf("%d buffers live after Release", live-start.Live)
	}
}
