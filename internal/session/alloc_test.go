package session

import (
	"runtime"
	"testing"

	"fecperf/internal/symbol"
	"fecperf/internal/wire"
)

// Alloc ceilings for the session hot paths, asserting the slab design on
// the benchmark's geometries: Reed-Solomon with 1 KiB symbols and LDGM
// Staircase with k=2048 symbols of 128 B. Encode makes the Object and
// nothing else (its slab's buffer table and the payload view table are
// recycled); a receive+decode cycle pays the Decoded, for the decoder,
// the object state and the slabs' buffer tables are recycled;
// steady-state datagram ingest — scratch header, one copy into a slab
// slot — allocates nothing at all. Payload memory comes from the symbol
// pool a slab buffer (up to 64 KiB) at a time, so the pool sees a few
// gets per object where the per-symbol design made one per symbol.
// Encode is bounded in bytes as well as in count: a table of one slice
// header per packet is a single allocation, and 24 bytes × n of garbage.

var allocGeometries = []struct {
	name    string
	cfg     SenderConfig
	size    int // object bytes
	packets int // n, for the pool ceilings
}{
	{"rse-1024", SenderConfig{ObjectID: 1, Family: wire.CodeRSE, Ratio: 1.5, PayloadSize: 1024}, 64 << 10, 98},
	{"rse-256x1024", SenderConfig{ObjectID: 1, Family: wire.CodeRSE, Ratio: 1.5, PayloadSize: 1024}, 256<<10 - lengthPrefix, 384},
	{"ldgm-staircase-2048x128", SenderConfig{ObjectID: 1, Family: wire.CodeLDGMStaircase, Ratio: 1.5, PayloadSize: 128, Seed: 9}, 2048*128 - lengthPrefix, 3072},
}

// poolGets returns how many buffers run draws from the symbol pool.
func poolGets(run func()) int {
	before := symbol.PoolStats().Gets
	run()
	return int(symbol.PoolStats().Gets - before)
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean growth of
// runtime.MemStats.TotalAlloc over one call of f, after one warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// slabBuffers is how many pool buffers a fully used slab of slots slots of
// stride bytes consists of.
func slabBuffers(slots, stride int) int {
	per := symbol.MaxPooled / stride
	return (slots + per - 1) / per
}

func TestSessionEncodeAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; ceilings gate the plain tier")
	}
	for _, g := range allocGeometries {
		data := benchData(g.size)
		run := func() {
			obj, err := EncodeObject(data, g.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if obj.N() != g.packets {
				t.Fatalf("%s: n = %d, want %d", g.name, obj.N(), g.packets)
			}
			obj.Close()
		}
		run() // warm the pools and the codec cache
		if avg := testing.AllocsPerRun(50, run); avg > 3 {
			t.Errorf("%s: EncodeObject allocs/op = %.1f, want <= 3", g.name, avg)
		}
		if avg := bytesPerRun(50, run); avg > 1<<10 {
			t.Errorf("%s: EncodeObject allocates %.0f bytes/op, want <= 1 KiB", g.name, avg)
		}
		if gets, want := poolGets(run), slabBuffers(g.packets, wire.HeaderLen+g.cfg.PayloadSize); gets != want {
			t.Errorf("%s: EncodeObject drew %d pool buffers, want the frame slab's %d", g.name, gets, want)
		}
	}
}

func TestSessionDecodeAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; ceilings gate the plain tier")
	}
	for _, g := range allocGeometries {
		data := benchData(g.size)
		obj, err := EncodeObject(data, g.cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Parity-heavy delivery so the decoder must solve: skip the first
		// eighth of the sources and backfill with parity.
		k, n := obj.K(), obj.N()
		var datagrams [][]byte
		for id := k / 8; id < n; id++ {
			d, err := obj.Datagram(id)
			if err != nil {
				t.Fatal(err)
			}
			datagrams = append(datagrams, d)
		}
		obj.Close()
		used := 0 // datagrams up to and including the completing one
		run := func() {
			rx := NewReceiver()
			for i, d := range datagrams {
				res, err := rx.IngestPacketEx(mustDecode(t, d))
				if err != nil {
					t.Fatal(err)
				}
				if res.Complete {
					out, _ := rx.Take(res.ObjectID)
					if out.Len() != len(data) {
						t.Fatalf("%s: decoded %d bytes, want %d", g.name, out.Len(), len(data))
					}
					out.Release()
					used = i + 1
					return
				}
			}
			t.Fatalf("%s: object did not decode", g.name)
		}
		run() // warm the pools and the codec cache
		// The Decoded: the decoder, the object state, its bitmap and the
		// slabs' buffer tables are the last object's — not
		// counting the packet this test's own mustDecode allocates per
		// datagram.
		if avg := testing.AllocsPerRun(20, run) - float64(used); avg > 4 {
			t.Errorf("%s: receive+decode allocs/op = %.1f, want <= 4", g.name, avg)
		}
		// Source slab + the decoder's second slab (LDGM: one slot per
		// parity symbol; RS: at most as many parity symbols) + the three
		// scratch matrices of an RS solve.
		ceiling := slabBuffers(k, g.cfg.PayloadSize) + slabBuffers(n-k, g.cfg.PayloadSize) + 3
		if gets := poolGets(run); gets > ceiling {
			t.Errorf("%s: receive+decode drew %d pool buffers, want <= %d", g.name, gets, ceiling)
		}
	}
}

func mustDecode(t *testing.T, d []byte) *wire.Packet {
	t.Helper()
	p, err := wire.Decode(d)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSessionIngestAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; ceilings gate the plain tier")
	}
	for _, g := range allocGeometries {
		data := benchData(g.size)
		obj, err := EncodeObject(data, g.cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Steady-state ingest: k is at least 65, so the warm-up plus 50
		// measured datagrams never complete the object (completion would
		// tear down the receiver's state and cloud the measurement).
		// Sources and parity alternate so both slabs are exercised.
		var datagrams [][]byte
		for i := 0; i < 26; i++ {
			for _, id := range []int{i, obj.K() + i} {
				d, err := obj.Datagram(id)
				if err != nil {
					t.Fatal(err)
				}
				datagrams = append(datagrams, d)
			}
		}
		obj.Close()
		rx := NewReceiver()
		fed := 0
		run := func() {
			if _, done, _, err := rx.Ingest(datagrams[fed]); err != nil {
				t.Fatal(err)
			} else if done {
				t.Fatal("object completed mid-measurement")
			}
			fed++
		}
		run() // open the object's state, draw the first slab buffers
		run()
		if avg := testing.AllocsPerRun(49, run); avg > 0 {
			t.Errorf("%s: Ingest allocs/op = %.2f, want 0", g.name, avg)
		}
		rx.Forget(g.cfg.ObjectID)
	}
}
