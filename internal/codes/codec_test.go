package codes

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"fecperf/internal/core"
	"fecperf/internal/ldpc"
	"fecperf/internal/repetition"
	"fecperf/internal/rse"
	"fecperf/internal/rse16"
	"fecperf/internal/wire"
)

// Compile-time checks: every family implements the payload codec surface.
var (
	_ core.Codec = (*rse.Code)(nil)
	_ core.Codec = (*rse16.Code)(nil)
	_ core.Codec = (*ldpc.Code)(nil)
	_ core.Codec = (*repetition.Code)(nil)
)

func randSymbols(rng *rand.Rand, k, symLen int) [][]byte {
	src := make([][]byte, k)
	for i := range src {
		src[i] = make([]byte, symLen)
		rng.Read(src[i])
	}
	return src
}

// evenFor rounds symLen to the family's alignment (rse16 carries 16-bit
// symbols).
func evenFor(name string, symLen int) int {
	if name == "rse16" && symLen%2 != 0 {
		return symLen + 1
	}
	return symLen
}

func ratioFor(name string, ratio float64) float64 {
	if name == "no-fec" {
		return 1.0
	}
	return ratio
}

func TestMakeCodecUnknownName(t *testing.T) {
	if _, err := MakeCodec("nope", 10, 1.5, 1); err == nil {
		t.Fatal("MakeCodec accepted junk name")
	}
}

func TestCodecRoundTripAllFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, name := range CodecNames {
		for _, k := range []int{1, 2, 13, 100} {
			for _, symLen := range []int{2, 63, 64, 256} {
				symLen := evenFor(name, symLen)
				c, err := MakeCodec(name, k, ratioFor(name, 1.5), 11)
				if err != nil {
					t.Fatalf("%s k=%d: %v", name, k, err)
				}
				l := c.Layout()
				src := randSymbols(rng, k, symLen)
				parity, err := c.Encode(src)
				if err != nil {
					t.Fatalf("%s k=%d: encode: %v", name, k, err)
				}
				if len(parity) != l.N-l.K {
					t.Fatalf("%s k=%d: %d parity symbols, want %d", name, k, len(parity), l.N-l.K)
				}
				all := append(append([][]byte{}, src...), parity...)

				dec, err := c.NewDecoder(symLen)
				if err != nil {
					t.Fatalf("%s k=%d: NewDecoder: %v", name, k, err)
				}
				ids := rng.Perm(l.N)
				done := false
				for _, id := range ids {
					done = dec.ReceivePayload(id, all[id])
					if done {
						break
					}
				}
				if !done {
					t.Fatalf("%s k=%d: not decoded after all %d symbols", name, k, l.N)
				}
				if got := dec.SourceRecovered(); got != k {
					t.Fatalf("%s k=%d: SourceRecovered = %d", name, k, got)
				}
				for i := 0; i < k; i++ {
					if !bytes.Equal(dec.Source(i), src[i]) {
						t.Fatalf("%s k=%d: source %d corrupted", name, k, i)
					}
				}
				// Post-completion arrivals must be no-ops.
				if !dec.ReceivePayload(ids[0], all[ids[0]]) {
					t.Fatalf("%s k=%d: decoder forgot completion", name, k)
				}
				dec.Close()
				dec.Close() // idempotent
			}
		}
	}
}

// TestStructuralMatchesPayloadAllFamilies is the codec-layer half of the
// simulator ↔ wire differential: the receiver the simulations run
// (NewReceiver) and the decoder the wire ships (NewDecoder) must agree
// after every packet of every arrival order — same completion arrival,
// same recovered-source and buffered-symbol counts — and the payload side
// must end up holding the original sources.
func TestStructuralMatchesPayloadAllFamilies(t *testing.T) {
	type geom struct {
		k     int
		ratio float64
	}
	ldgm := []geom{{50, 1.5}, {120, 2.5}}
	geoms := map[string][]geom{
		"rse":            {{20, 1.5}, {171, 1.5}, {30, 1}}, // one block, two unequal blocks, no parity
		"rse16":          {{20, 1.5}, {64, 2.5}},
		"ldgm":           ldgm,
		"ldgm-staircase": ldgm,
		"ldgm-triangle":  ldgm,
		"no-fec":         {{1, 1}, {40, 1}},
	}
	const symLen = 16
	for _, name := range CodecNames {
		for _, g := range geoms[name] {
			c, err := MakeCodec(name, g.k, g.ratio, 5)
			if err != nil {
				t.Fatalf("%s %+v: %v", name, g, err)
			}
			l := c.Layout()
			rng := rand.New(rand.NewSource(int64(l.N)))
			src := randSymbols(rng, l.K, symLen)
			parity, err := c.Encode(src)
			if err != nil {
				t.Fatalf("%s %+v: encode: %v", name, g, err)
			}
			all := append(append([][]byte{}, src...), parity...)
			for order := 0; order < 8; order++ {
				// A lossy pass with duplicates, then a clean pass so that
				// every order completes.
				var ids []int
				for _, id := range rng.Perm(l.N) {
					if rng.Float64() < 0.3 {
						continue
					}
					ids = append(ids, id)
					if rng.Float64() < 0.2 {
						ids = append(ids, ids[rng.Intn(len(ids))])
					}
				}
				ids = append(ids, rng.Perm(l.N)...)

				rx := c.NewReceiver()
				dec, err := c.NewDecoder(symLen)
				if err != nil {
					t.Fatalf("%s %+v: NewDecoder: %v", name, g, err)
				}
				rxMem, decMem := rx.(core.MemoryReporter), dec.(core.MemoryReporter)
				for i, id := range ids {
					a, b := rx.Receive(id), dec.ReceivePayload(id, all[id])
					if a != b || rx.Done() != dec.Done() || rx.SourceRecovered() != dec.SourceRecovered() ||
						rxMem.BufferedSymbols() != decMem.BufferedSymbols() {
						t.Fatalf("%s %+v order %d, arrival %d (id %d): structural done=%v/%v recovered=%d buffered=%d, payload done=%v/%v recovered=%d buffered=%d",
							name, g, order, i, id, a, rx.Done(), rx.SourceRecovered(), rxMem.BufferedSymbols(),
							b, dec.Done(), dec.SourceRecovered(), decMem.BufferedSymbols())
					}
				}
				if !dec.Done() {
					t.Fatalf("%s %+v order %d: not decoded after every symbol arrived", name, g, order)
				}
				for i := range src {
					if !bytes.Equal(dec.Source(i), src[i]) {
						t.Fatalf("%s %+v order %d: source %d differs from the original", name, g, order, i)
					}
				}
				dec.Close()
			}
		}
	}
}

func TestCodecDecodesUnderLoss(t *testing.T) {
	// Drop a third of the packets; MDS families must still decode from
	// any k survivors, LDGM whenever the peeling decoder completes.
	rng := rand.New(rand.NewSource(8))
	for _, name := range CodecNames {
		if name == "no-fec" {
			continue // no parity: any loss is fatal by design
		}
		k, symLen := 50, evenFor(name, 128)
		c, err := MakeCodec(name, k, 2.5, 3)
		if err != nil {
			t.Fatal(err)
		}
		l := c.Layout()
		src := randSymbols(rng, k, symLen)
		parity, err := c.Encode(src)
		if err != nil {
			t.Fatal(err)
		}
		all := append(append([][]byte{}, src...), parity...)
		dec, err := c.NewDecoder(symLen)
		if err != nil {
			t.Fatal(err)
		}
		defer dec.Close()
		done := false
		var dropped []int
		for _, id := range rng.Perm(l.N) {
			if rng.Float64() < 0.33 {
				dropped = append(dropped, id)
				continue
			}
			if done = dec.ReceivePayload(id, all[id]); done {
				break
			}
		}
		if !done {
			// The MDS families decode from any k survivors, guaranteed.
			// LDGM iterative decoding may legitimately stall (that
			// overhead is the paper's subject); top it up and it must
			// finish.
			if name == "rse" || name == "rse16" {
				t.Fatalf("%s: failed to decode with 33%% loss at ratio 2.5", name)
			}
			for _, id := range dropped {
				if done = dec.ReceivePayload(id, all[id]); done {
					break
				}
			}
			if !done {
				t.Fatalf("%s: failed to decode even after full delivery", name)
			}
		}
		for i := 0; i < k; i++ {
			if !bytes.Equal(dec.Source(i), src[i]) {
				t.Fatalf("%s: source %d corrupted", name, i)
			}
		}
	}
}

func TestDecoderBorrowsPayload(t *testing.T) {
	// The payload passed to ReceivePayload is only borrowed: reusing (and
	// clobbering) one buffer for every delivery must not corrupt decoding.
	rng := rand.New(rand.NewSource(9))
	for _, name := range CodecNames {
		k, symLen := 20, evenFor(name, 64)
		c, err := MakeCodec(name, k, ratioFor(name, 2.0), 5)
		if err != nil {
			t.Fatal(err)
		}
		l := c.Layout()
		src := randSymbols(rng, k, symLen)
		parity, err := c.Encode(src)
		if err != nil {
			t.Fatal(err)
		}
		all := append(append([][]byte{}, src...), parity...)
		dec, err := c.NewDecoder(symLen)
		if err != nil {
			t.Fatal(err)
		}
		shared := make([]byte, symLen)
		for _, id := range rng.Perm(l.N) {
			copy(shared, all[id])
			done := dec.ReceivePayload(id, shared)
			for i := range shared {
				shared[i] = 0xAA // clobber after return
			}
			if done {
				break
			}
		}
		if !dec.Done() {
			t.Fatalf("%s: lossless delivery did not decode", name)
		}
		for i := 0; i < k; i++ {
			if !bytes.Equal(dec.Source(i), src[i]) {
				t.Fatalf("%s: decoder retained the borrowed buffer (source %d corrupted)", name, i)
			}
		}
		dec.Close()
	}
}

func TestNewDecoderRejectsBadSymbolLengths(t *testing.T) {
	for _, name := range CodecNames {
		c, err := MakeCodec(name, 10, ratioFor(name, 1.5), 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.NewDecoder(0); err == nil {
			t.Errorf("%s: NewDecoder(0) accepted", name)
		}
		if _, err := c.NewDecoder(-4); err == nil {
			t.Errorf("%s: NewDecoder(-4) accepted", name)
		}
	}
	c, err := MakeCodec("rse16", 10, 1.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.NewDecoder(63); err == nil {
		t.Error("rse16: odd symbol length accepted")
	}
}

func TestForWireGeometry(t *testing.T) {
	// ForWire must reproduce exactly the geometry the sender announced.
	for _, name := range CodecNames {
		for _, k := range []int{1, 7, 100, 300} {
			enc, err := MakeCodec(name, k, ratioFor(name, 1.5), 9)
			if err != nil {
				t.Fatal(err)
			}
			l := enc.Layout()
			f, err := wire.FamilyByName(name)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := ForWire(f, l.K, l.N, 9)
			if err != nil {
				t.Fatalf("%s k=%d: ForWire: %v", name, k, err)
			}
			if dl := dec.Layout(); dl.K != l.K || dl.N != l.N {
				t.Fatalf("%s k=%d: ForWire geometry (%d,%d) != (%d,%d)", name, k, dl.K, dl.N, l.K, l.N)
			}
		}
	}
	if _, err := ForWire(wire.CodeNoFEC, 10, 12, 0); err == nil {
		t.Error("no-fec OTI with parity accepted")
	}
	if _, err := ForWire(wire.CodeInvalid, 10, 12, 0); err == nil {
		t.Error("invalid family accepted")
	}

	// RSE blocks are a function of (k, n): every n from k to 255·k is a
	// code of exactly n symbols, each block with at least one source and
	// at most 255 symbols. All of them for small k, a seeded sample above.
	checkRSE := func(k, n int) {
		c, err := ForWire(wire.CodeRSE, k, n, 0)
		if err != nil {
			t.Fatalf("rse k=%d n=%d: %v", k, n, err)
		}
		l := c.Layout()
		if l.K != k || l.N != n {
			t.Fatalf("rse k=%d n=%d: built (%d,%d)", k, n, l.K, l.N)
		}
		for bi, b := range l.Blocks {
			if len(b.Source) < 1 || len(b.Source)+len(b.Parity) > rse.MaxBlock {
				t.Fatalf("rse k=%d n=%d: block %d has %d sources, %d parities", k, n, bi, len(b.Source), len(b.Parity))
			}
		}
	}
	for k := 1; k <= 8; k++ {
		for n := k; n <= rse.MaxBlock*k; n++ {
			checkRSE(k, n)
		}
	}
	rng := rand.New(rand.NewSource(301))
	for i := 0; i < 2000; i++ {
		k := 1 + rng.Intn(3000)
		checkRSE(k, k+rng.Intn(min(rse.MaxBlock*k, 20000)-k+1))
	}
	checkRSE(300, 301) // no (k, n) within the bound is unreachable

	// Geometry from the network that no blocking satisfies is an error,
	// never a panic: OpenReassembly hands ForWire whatever a header says.
	for _, g := range [][2]int{{10, 9}, {0, 0}, {0, 5}, {-3, 4}, {1, 256}, {10, 2551}, {1 << 20, 1<<32 - 1}} {
		if _, err := ForWire(wire.CodeRSE, g[0], g[1], 0); err == nil {
			t.Errorf("rse k=%d n=%d accepted", g[0], g[1])
		}
	}
}

// TestRatioBeyondTheHeaderIsAnError: a ratio that is not a finite value
// >= 1, or one whose n the header's 32-bit symbol count cannot carry, is
// an error wherever it meets a codec, and a failed build returns no codec
// at all — not a nil pointer in a non-nil interface.
func TestRatioBeyondTheHeaderIsAnError(t *testing.T) {
	for _, c := range []struct {
		family string
		k      int
		ratio  float64
	}{
		{"ldgm-staircase", 100, math.NaN()},
		{"ldgm-staircase", 100, math.Inf(1)},
		{"ldgm-staircase", 100, 1e300},
		{"rse16", 100, math.Inf(-1)},
		{"rse", 100, math.NaN()},
		{"rse", 100, math.Inf(1)},
		{"no-fec", 100, 0.5},
	} {
		f, err := wire.FamilyByName(c.family)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := N(f, c.k, c.ratio); err == nil {
			t.Errorf("N(%s, k=%d, ratio=%g) = %d, want an error", c.family, c.k, c.ratio, n)
		}
		if codec, err := MakeCodec(c.family, c.k, c.ratio, 1); err == nil || codec != nil {
			t.Errorf("MakeCodec(%s, k=%d, ratio=%g) = %v, %v; want nil and an error", c.family, c.k, c.ratio, codec, err)
		}
	}
	// Finite, but past the header: an error before any construction.
	if n, err := N(wire.CodeLDGMTriangle, 1<<30, 5); err == nil {
		t.Errorf("N(ldgm-triangle, k=2^30, ratio=5) = %d, want an error", n)
	}
	s, err := ParseSpec("ldgm(k=100,ratio=1e300)")
	if err != nil {
		t.Fatal(err)
	}
	if codec, err := s.New(); err == nil || codec != nil {
		t.Errorf("%s: New() = %v, %v; want nil and an error", s.Name(), codec, err)
	}
	for _, f := range []wire.CodeFamily{wire.CodeRSE, wire.CodeRSE16, wire.CodeLDGMStaircase, wire.CodeNoFEC} {
		if codec, err := ForWire(f, 100, 50, 1); err == nil || codec != nil {
			t.Errorf("ForWire(%v, k=100, n=50) = %v, %v; want nil and an error", f, codec, err)
		}
	}
}

func sameLayout(a, b core.Layout) bool {
	return a.K == b.K && a.N == b.N && slices.EqualFunc(a.Blocks, b.Blocks, func(x, y core.Block) bool {
		return slices.Equal(x.Source, y.Source) && slices.Equal(x.Parity, y.Parity)
	})
}

// wireRatios are the expansion ratios the sender↔receiver differentials
// walk: the paper's 1.5 and 2.5 among values whose products with k round
// every way.
var wireRatios = []float64{1.05, 1.1, 1.2, 1.25, 1.3, 1.333, 1.4, 1.5, 1.6, 1.75, 2, 2.25, 2.5, 3, 3.5, 4}

// TestSenderAndWireCodecsAgree is the codec half of the sender↔receiver
// differential: for every family, k = 1…3000 and every ratio above, the
// codec a sender builds from (k, ratio) and the codec a receiver rebuilds
// from the (k, n) in the header have identical block lists, and the cache
// hands both sides one instance. Before the blocks of an RS code were a
// function of (k, n) the rebuild was refused for a third of these k at
// ratio 1.5 (first k = 339) and silently differed for others (first 677).
func TestSenderAndWireCodecsAgree(t *testing.T) {
	for _, name := range CodecNames {
		f, err := wire.FamilyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		// An LDGM graph costs ≈0.5 ms to build against microseconds for
		// the block codes, and the family is one block whatever (k, n):
		// its full grid is a minute of construction, so -short walks it in
		// strides — as -race walks every family, this being one goroutine.
		ldgm := strings.HasPrefix(name, "ldgm")
		stride := 1
		if raceEnabled || (ldgm && testing.Short()) {
			stride = 37
		}
		for k := 1; k <= 3000; k += stride {
			for _, ratio := range wireRatios {
				n, err := N(f, k, ratioFor(name, ratio))
				if err != nil {
					t.Fatalf("%s k=%d ratio %g: N: %v", name, k, ratio, err)
				}
				sender, err := CachedForWire(f, k, n, 5)
				if err != nil {
					if n == k && (ldgm || name == "rse16") {
						continue // a small k rounds to no parity, which these families refuse
					}
					t.Fatalf("%s k=%d ratio %g (n=%d): %v", name, k, ratio, n, err)
				}
				l := sender.Layout()
				if l.K != k || l.N != n {
					t.Fatalf("%s k=%d ratio %g: sender built (%d,%d), announced n=%d", name, k, ratio, l.K, l.N, n)
				}
				cached, err := CachedForWire(f, l.K, l.N, 5)
				if err != nil || cached != sender {
					t.Fatalf("%s k=%d ratio %g: the receiver's cache lookup is another codec (err %v)", name, k, ratio, err)
				}
				if ldgm {
					continue // one block; a second graph build would say nothing
				}
				rebuilt, err := ForWire(f, l.K, l.N, 5)
				if err != nil {
					t.Fatalf("%s k=%d ratio %g: receiver cannot rebuild n=%d: %v", name, k, ratio, l.N, err)
				}
				if !sameLayout(rebuilt.Layout(), l) {
					t.Fatalf("%s k=%d ratio %g (n=%d): sender and receiver cut different blocks", name, k, ratio, n)
				}
			}
		}
	}
}

func TestEncodeValidatesInput(t *testing.T) {
	for _, name := range CodecNames {
		c, err := MakeCodec(name, 5, ratioFor(name, 1.5), 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Encode(make([][]byte, 3)); err == nil {
			t.Errorf("%s: wrong source count accepted", name)
		}
		ragged := [][]byte{{1, 2}, {1, 2}, {1}, {1, 2}, {1, 2}}
		if _, err := c.Encode(ragged); err == nil {
			t.Errorf("%s: ragged payloads accepted", name)
		}
	}
}

// wireGeometries are RS (k, ratio index into wireRatios) pairs on which a
// receiver rebuilding the code from the header used to disagree with the
// sender: refused (339 @ 1.5, 304 @ 2.5), silently different blocks
// (203 @ 2.5, 677 @ 1.5, 407 @ 1.25, 243 @ 1.05, 508 @ 1.05), and two that
// always agreed beside them (1001 @ 2.5, 256 @ 1.5).
var wireGeometries = [][2]int{{203, 12}, {677, 7}, {407, 3}, {243, 0}, {339, 7}, {304, 12}, {508, 0}, {1001, 12}, {256, 7}}

// FuzzCodecRoundTrip drives random (family, k, ratio, symbol size, loss
// pattern, delivery order) combinations through encode → drop → decode
// and asserts byte-identical recovery for every pattern the decoder
// accepts — and that full delivery always decodes. The decoder belongs to
// a codec rebuilt from what the header carries — (family, k, n, seed) —
// never to the instance that encoded.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint16(10), uint8(7), uint8(64), int64(1), int64(2))
	f.Add(uint8(1), uint16(1), uint8(7), uint8(1), int64(3), int64(4))
	f.Add(uint8(2), uint16(200), uint8(12), uint8(33), int64(5), int64(6))
	f.Add(uint8(3), uint16(40), uint8(15), uint8(2), int64(7), int64(8))
	f.Add(uint8(4), uint16(7), uint8(10), uint8(17), int64(9), int64(10))
	f.Add(uint8(5), uint16(3), uint8(0), uint8(128), int64(11), int64(12))
	for i, g := range wireGeometries {
		f.Add(uint8(0), uint16(g[0]-1), uint8(g[1]), uint8(15), int64(i), int64(13+i))
	}
	f.Fuzz(func(t *testing.T, famB uint8, kRaw uint16, ratioB, lenB uint8, seed, lossSeed int64) {
		name := CodecNames[int(famB)%len(CodecNames)]
		k := 1 + int(kRaw)%3000
		ratio := ratioFor(name, wireRatios[int(ratioB)%len(wireRatios)])
		symLen := 1 + int(lenB)%200 // odd and unaligned lengths included
		symLen = evenFor(name, symLen)

		c, err := MakeCodec(name, k, ratio, seed)
		if err != nil {
			t.Skip() // unsatisfiable geometry (e.g. ldgm needs n > k)
		}
		l := c.Layout()
		rng := rand.New(rand.NewSource(seed))
		src := randSymbols(rng, k, symLen)
		parity, err := c.Encode(src)
		if err != nil {
			t.Fatalf("%s k=%d symLen=%d: encode: %v", name, k, symLen, err)
		}
		all := append(append([][]byte{}, src...), parity...)

		family, _ := wire.FamilyByName(name)
		rx, err := ForWire(family, l.K, l.N, seed)
		if err != nil {
			t.Fatalf("%s k=%d ratio %g: receiver cannot rebuild n=%d: %v", name, k, ratio, l.N, err)
		}
		dec, err := rx.NewDecoder(symLen)
		if err != nil {
			t.Fatalf("%s: NewDecoder: %v", name, err)
		}
		defer dec.Close()

		verify := func(stage string) {
			if got := dec.SourceRecovered(); got != k {
				t.Fatalf("%s %s: done but SourceRecovered=%d, want %d", name, stage, got, k)
			}
			for i := 0; i < k; i++ {
				if !bytes.Equal(dec.Source(i), src[i]) {
					t.Fatalf("%s k=%d ratio %g %s: source %d differs after decode", name, k, ratio, stage, i)
				}
			}
		}

		lossRng := rand.New(rand.NewSource(lossSeed))
		order := lossRng.Perm(l.N)
		var dropped []int
		done := false
		for _, id := range order {
			if lossRng.Float64() < 0.3 {
				dropped = append(dropped, id)
				continue
			}
			if dec.ReceivePayload(id, all[id]) {
				done = true
				break
			}
		}
		if done {
			verify("lossy")
		}
		// Deliver everything that was dropped: with the full set in hand
		// every family must decode, and duplicates must stay harmless.
		for _, id := range dropped {
			done = dec.ReceivePayload(id, all[id])
		}
		for _, id := range order[:min(3, len(order))] {
			done = dec.ReceivePayload(id, all[id])
		}
		if !dec.Done() {
			t.Fatalf("%s k=%d: full delivery did not decode", name, k)
		}
		verify("full")
	})
}

// TestCodecNamesResolve keeps the registry lists in sync.
func TestCodecNamesResolve(t *testing.T) {
	for _, name := range CodecNames {
		f, err := wire.FamilyByName(name)
		if err != nil {
			t.Fatalf("codec name %q has no wire family: %v", name, err)
		}
		if f.String() != name {
			t.Fatalf("wire family %v stringifies to %q, want %q", f, f.String(), name)
		}
	}
}
