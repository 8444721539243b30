package rse

import (
	"bytes"
	"math/bits"
	"math/rand"
	"runtime"
	"testing"

	"fecperf/internal/gf256"
)

func testSymbols(t *testing.T, k, symLen int, seed int64) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	src := make([][]byte, k)
	for i := range src {
		src[i] = make([]byte, symLen)
		rng.Read(src[i])
	}
	return src
}

// TestEncodeParallelMatchesSequential pins the determinism claim: the
// goroutine fan-out over blocks must produce byte-identical parity. The
// object is large enough (1 MiB, 8 blocks) to cross the parallel
// threshold once GOMAXPROCS allows it.
func TestEncodeParallelMatchesSequential(t *testing.T) {
	c, err := newRatio(1024, 1.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumBlocks() < 2 {
		t.Fatalf("test geometry produced %d blocks, want several", c.NumBlocks())
	}
	src := testSymbols(t, 1024, 1024, 21)

	old := runtime.GOMAXPROCS(1)
	seq, err := c.Encode(src)
	runtime.GOMAXPROCS(4)
	par, parErr := c.Encode(src)
	runtime.GOMAXPROCS(old)
	if err != nil || parErr != nil {
		t.Fatal(err, parErr)
	}
	if len(seq) != len(par) {
		t.Fatalf("parity counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if !bytes.Equal(seq[i], par[i]) {
			t.Fatalf("parity %d differs between sequential and parallel encode", i)
		}
	}
}

// TestPayloadDecoderPerBlock exercises the incremental decoder across
// blocks: one block decodes from parity alone, the others from mixes,
// and completed blocks must release state without waiting for the rest.
func TestPayloadDecoderPerBlock(t *testing.T) {
	c, err := newRatio(200, 2.5, 0) // 2 blocks of 100
	if err != nil {
		t.Fatal(err)
	}
	if c.NumBlocks() != 2 {
		t.Fatalf("geometry: %d blocks, want 2", c.NumBlocks())
	}
	src := testSymbols(t, 200, 128, 22)
	parity, err := c.Encode(src)
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([][]byte{}, src...), parity...)
	l := c.Layout()

	dec, err := c.NewDecoder(128)
	if err != nil {
		t.Fatal(err)
	}
	defer dec.Close()

	// Block 0: parity only (full inversion). Block 1: sources only.
	b0, b1 := l.Blocks[0], l.Blocks[1]
	for _, id := range b0.Parity[:len(b0.Source)] {
		if dec.ReceivePayload(id, all[id]) {
			t.Fatal("done before block 1 delivered")
		}
	}
	if got := dec.SourceRecovered(); got != len(b0.Source) {
		t.Fatalf("block 0 complete: SourceRecovered=%d, want %d", got, len(b0.Source))
	}
	done := false
	for _, id := range b1.Source {
		done = dec.ReceivePayload(id, all[id])
	}
	if !done {
		t.Fatal("not done after both blocks decodable")
	}
	for i := 0; i < 200; i++ {
		if !bytes.Equal(dec.Source(i), src[i]) {
			t.Fatalf("source %d corrupted", i)
		}
	}
	// Duplicates and extra parity after completion are no-ops.
	if !dec.ReceivePayload(b0.Parity[0], all[b0.Parity[0]]) {
		t.Fatal("completion forgotten")
	}
}

// TestEncodeRatioOneBlock covers the zero-parity geometry the fuzzer
// found: ratio 1 blocks have no generator and must encode to nothing.
func TestEncodeRatioOneBlock(t *testing.T) {
	c, err := newRatio(10, 1.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	src := testSymbols(t, 10, 32, 23)
	parity, err := c.Encode(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(parity) != 0 {
		t.Fatalf("ratio-1 object produced %d parity symbols", len(parity))
	}
	dec, err := c.NewDecoder(32)
	if err != nil {
		t.Fatal(err)
	}
	defer dec.Close()
	done := false
	for id := 0; id < 10; id++ {
		done = dec.ReceivePayload(id, src[id])
	}
	if !done {
		t.Fatal("all sources delivered but not done")
	}
}

// oracleDecode is the reference the fast decoder is compared against: it
// selects the k_b given rows of the full systematic matrix (identity rows
// for sources, generator rows for parity), inverts all k_b×k_b of it by
// Gauss-Jordan and multiplies, touching nothing but the scalar log/exp
// kernel — the algorithm decodeBlock used to run, on the tier no SIMD or
// table kernel can influence. esis must hold k_b distinct in-block indices.
func oracleDecode(t *testing.T, c *Code, esis []int, payloads [][]byte) [][]byte {
	t.Helper()
	bd := c.blocks[0]
	kb := bd.kb
	a := make([][]byte, kb)   // selected rows, reduced to the identity
	inv := make([][]byte, kb) // starts as the identity, ends as a^-1
	for r, esi := range esis {
		a[r], inv[r] = make([]byte, kb), make([]byte, kb)
		inv[r][r] = 1
		if esi < kb {
			a[r][esi] = 1
		} else {
			copy(a[r], c.generator(kb, bd.nb).Row(esi-kb))
		}
	}
	scale := make([]byte, kb)
	for col := 0; col < kb; col++ {
		p := col
		for p < kb && a[p][col] == 0 {
			p++
		}
		if p == kb {
			t.Fatalf("oracle: rows %v singular", esis)
		}
		a[p], a[col], inv[p], inv[col] = a[col], a[p], inv[col], inv[p]
		ip := gf256.Inv(a[col][col])
		for _, row := range [][]byte{a[col], inv[col]} {
			gf256.MulSliceScalar(scale, row, ip)
			copy(row, scale)
		}
		for r := 0; r < kb; r++ {
			if f := a[r][col]; r != col && f != 0 {
				gf256.AddMulScalar(a[r], a[col], f)
				gf256.AddMulScalar(inv[r], inv[col], f)
			}
		}
	}
	out := make([][]byte, kb)
	for i := range out {
		out[i] = make([]byte, len(payloads[0]))
		for j, f := range inv[i] {
			gf256.AddMulScalar(out[i], payloads[j], f)
		}
	}
	return out
}

// TestDecodeDifferentialScalarOracle drives the syndrome + e×e decoder
// over the geometry corners (row groups of 4/2/1, symbols shorter than,
// equal to and just past one vector, inversions from 1×1 to k_b×k_b) and
// checks every decoded source against the originals and against the
// scalar full-inverse oracle. Each case delivers exactly k_b distinct
// symbols — k_b-e sources and e parity, shuffled, with duplicates — so
// the block decodes with exactly e erasures, and the payload slices
// handed to ReceivePayload must come back untouched.
func TestDecodeDifferentialScalarOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, kb := range []int{1, 2, 5, 32, 128, 170} {
		for _, ratio := range []float64{1.5, 2.5} {
			c, err := newRatio(kb, ratio, 0)
			if err != nil {
				t.Fatal(err)
			}
			if c.NumBlocks() != 1 {
				continue // k_b does not fit one block at this ratio
			}
			nb := c.blocks[0].nb
			for _, symLen := range []int{1, 31, 32, 33, 1024, 1500} {
				src := testSymbols(t, kb, symLen, int64(kb*symLen))
				parity, err := c.Encode(src)
				if err != nil {
					t.Fatal(err)
				}
				all := append(append([][]byte{}, src...), parity...)
				pristine := make([][]byte, len(all))
				for i, p := range all {
					pristine[i] = append([]byte(nil), p...)
				}
				for _, e := range []int{0, 1, 3, 4, 5, (kb + 2) / 3, kb} {
					if e > kb || e > nb-kb {
						continue
					}
					// k_b-e sources and e parity, in random order.
					esis := append(rng.Perm(kb)[:kb-e:kb-e], rng.Perm(nb - kb)[:e]...)
					for i := kb - e; i < kb; i++ {
						esis[i] += kb
					}
					rng.Shuffle(kb, func(i, j int) { esis[i], esis[j] = esis[j], esis[i] })

					dec, err := c.NewDecoder(symLen)
					if err != nil {
						t.Fatal(err)
					}
					payloads := make([][]byte, kb)
					for i, esi := range esis {
						payloads[i] = all[esi]
						if i > 0 {
							dup := esis[rng.Intn(i)]
							dec.ReceivePayload(dup, all[dup])
						}
						if done := dec.ReceivePayload(esi, all[esi]); done != (i == kb-1) {
							t.Fatalf("kb=%d nb=%d e=%d len=%d: done=%v after %d of %d distinct symbols", kb, nb, e, symLen, done, i+1, kb)
						}
					}
					want := oracleDecode(t, c, esis, payloads)
					for i := range src {
						got := dec.Source(i)
						if !bytes.Equal(got, src[i]) || !bytes.Equal(got, want[i]) {
							t.Fatalf("kb=%d nb=%d e=%d len=%d: source %d differs (original %v, oracle %v)",
								kb, nb, e, symLen, i, bytes.Equal(got, src[i]), bytes.Equal(got, want[i]))
						}
					}
					dec.Close()
				}
				for i := range all {
					if !bytes.Equal(all[i], pristine[i]) {
						t.Fatalf("kb=%d nb=%d len=%d: decoder mutated the caller's payload %d", kb, nb, symLen, i)
					}
				}
			}
		}
	}
}

// TestDecodeEverySubsetK4N8 pins the claim decodeBlock's one remaining
// panic relies on — the code is MDS, so no choice of received parity rows
// and missing source columns yields a singular system — by decoding from
// every one of the 70 k_b-subsets of an (n_b=8, k_b=4) block.
func TestDecodeEverySubsetK4N8(t *testing.T) {
	c, err := newRatio(4, 2.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if l := c.Layout(); c.NumBlocks() != 1 || l.N != 8 {
		t.Fatalf("geometry: %d blocks, n=%d; want 1 block of 8", c.NumBlocks(), l.N)
	}
	src := testSymbols(t, 4, 33, 32)
	parity, err := c.Encode(src)
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([][]byte{}, src...), parity...)
	subsets := 0
	for mask := 0; mask < 1<<8; mask++ {
		if bits.OnesCount(uint(mask)) != 4 {
			continue
		}
		subsets++
		dec, err := c.NewDecoder(33)
		if err != nil {
			t.Fatal(err)
		}
		for id := 7; id >= 0; id-- { // parity before sources
			if mask&(1<<id) != 0 {
				dec.ReceivePayload(id, all[id])
			}
		}
		if !dec.Done() {
			t.Fatalf("subset %08b: not done", mask)
		}
		for i := range src {
			if !bytes.Equal(dec.Source(i), src[i]) {
				t.Fatalf("subset %08b: source %d differs", mask, i)
			}
		}
		dec.Close()
	}
	if subsets != 70 {
		t.Fatalf("enumerated %d subsets, want 70", subsets)
	}
}
