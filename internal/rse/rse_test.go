package rse

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"fecperf/internal/core"
)

// newRatio is how every test here names a code: the sender's way, a
// ratio turned into a symbol count by N and handed to New. maxBlock 0
// means MaxBlock.
func newRatio(k int, ratio float64, maxBlock int) (*Code, error) {
	n, err := N(k, ratio, maxBlock)
	if err != nil {
		return nil, err
	}
	return New(Params{K: k, N: n, MaxBlock: maxBlock})
}

func mustNew(t testing.TB, k int, ratio float64, maxBlock int) *Code {
	t.Helper()
	c, err := newRatio(k, ratio, maxBlock)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewRejectsBadParams(t *testing.T) {
	for _, c := range []struct {
		k        int
		ratio    float64
		maxBlock int
	}{
		{0, 2, 0},
		{-5, 2, 0},
		{10, 0.5, 0},
		{10, math.NaN(), 0},
		{10, 2, 1},
		{10, 2, 1000},
		{10, 300, 255},
	} {
		if _, err := newRatio(c.k, c.ratio, c.maxBlock); err == nil {
			t.Errorf("ratio %+v accepted", c)
		}
	}
	// The same from the integers, as a receiver meets them.
	for _, p := range []Params{
		{K: 0, N: 5},
		{K: -5, N: 5},
		{K: 10, N: 9},
		{K: 10, N: 20, MaxBlock: 1},
		{K: 10, N: 20, MaxBlock: 1000},
		{K: 10, N: 3000},           // more blocks than sources
		{K: 2, N: 12, MaxBlock: 5}, // likewise under a lowered cap
		{K: 1 << 20, N: 1<<31 - 1}, // k blocks of ⌈n/k⌉ > 255
	} {
		if _, err := New(p); err == nil {
			t.Errorf("New(%+v) accepted invalid params", p)
		}
	}
}

func TestSingleBlockGeometry(t *testing.T) {
	c := mustNew(t, 100, 2.5, 0)
	if c.NumBlocks() != 1 {
		t.Fatalf("NumBlocks = %d, want 1", c.NumBlocks())
	}
	l := c.Layout()
	if l.K != 100 || l.N != 250 {
		t.Fatalf("layout k=%d n=%d, want 100/250", l.K, l.N)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMultiBlockGeometry(t *testing.T) {
	// k=20000, ratio 2.5 as in the paper: kmax = floor(255/2.5) = 102,
	// so roughly 197 blocks.
	c := mustNew(t, 20000, 2.5, 0)
	if c.NumBlocks() < 190 || c.NumBlocks() > 210 {
		t.Fatalf("NumBlocks = %d, want ~197", c.NumBlocks())
	}
	l := c.Layout()
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// The realised global ratio should be close to the requested one.
	if r := l.ExpansionRatio(); r < 2.4 || r > 2.6 {
		t.Fatalf("global expansion ratio %g, want ≈2.5", r)
	}
	// No block may exceed the field limit.
	for _, b := range l.Blocks {
		if nb := len(b.Source) + len(b.Parity); nb > MaxBlock {
			t.Fatalf("block with %d symbols exceeds %d", nb, MaxBlock)
		}
	}
}

func TestBlockSizesDifferByAtMostOne(t *testing.T) {
	c := mustNew(t, 1000, 1.5, 0)
	minK, maxK := 1<<30, 0
	for _, b := range c.Layout().Blocks {
		if len(b.Source) < minK {
			minK = len(b.Source)
		}
		if len(b.Source) > maxK {
			maxK = len(b.Source)
		}
	}
	if maxK-minK > 1 {
		t.Fatalf("block source sizes range [%d,%d]", minK, maxK)
	}
}

// TestBlockOfRoundTrip checks the decoder files every packet ID under its
// own block: that ID plus k_b-1 other symbols of the block must decode
// exactly that block, leaving nothing buffered.
func TestBlockOfRoundTrip(t *testing.T) {
	c := mustNew(t, 500, 2.5, 0)
	for bi, b := range c.Layout().Blocks {
		ids := append(append([]int{}, b.Source...), b.Parity...)
		for _, id := range ids {
			rx := c.NewReceiver()
			rx.Receive(id)
			for fed := 1; fed < len(b.Source); fed++ {
				if other := ids[fed-1]; other != id {
					rx.Receive(other)
				} else {
					rx.Receive(ids[len(b.Source)-1])
				}
			}
			if buf := rx.BufferedSymbols(); rx.SourceRecovered() != len(b.Source) || buf != 0 {
				t.Fatalf("block %d with packet %d: %d sources recovered, %d symbols still buffered",
					bi, id, rx.SourceRecovered(), buf)
			}
		}
	}
}

func TestReceiverMDSPerBlock(t *testing.T) {
	c := mustNew(t, 10, 2.0, 10)
	// kmax = 5 → two blocks of 5 source + 5 parity each.
	if c.NumBlocks() != 2 {
		t.Fatalf("NumBlocks = %d, want 2", c.NumBlocks())
	}
	rx := c.NewReceiver()
	l := c.Layout()
	// Deliver k_b symbols of block 0 only: not done.
	for _, id := range l.Blocks[0].Source {
		if rx.Receive(id) {
			t.Fatal("decoded with only one block")
		}
	}
	if rx.SourceRecovered() != 5 {
		t.Fatalf("SourceRecovered = %d, want 5", rx.SourceRecovered())
	}
	// Deliver 5 parity symbols of block 1: decodes block 1 via MDS rule.
	for i, id := range l.Blocks[1].Parity {
		done := rx.Receive(id)
		if i < 4 && done {
			t.Fatal("decoded too early")
		}
		if i == 4 && !done {
			t.Fatal("not decoded after k_b symbols of final block")
		}
	}
	if got := rx.SourceRecovered(); got != 10 {
		t.Fatalf("SourceRecovered = %d, want 10", got)
	}
}

func TestReceiverDuplicatesIgnored(t *testing.T) {
	c := mustNew(t, 4, 2.0, 0)
	rx := c.NewReceiver()
	for i := 0; i < 3; i++ {
		if rx.Receive(0) {
			t.Fatal("decoded from duplicates")
		}
	}
	if rx.SourceRecovered() != 1 {
		t.Fatalf("SourceRecovered = %d, want 1", rx.SourceRecovered())
	}
}

func TestReceiverOutOfRangePanics(t *testing.T) {
	c := mustNew(t, 4, 2.0, 0)
	rx := c.NewReceiver()
	defer func() {
		if recover() == nil {
			t.Fatal("Receive(out of range) did not panic")
		}
	}()
	rx.Receive(999)
}

func randPayloads(rng *rand.Rand, n, symLen int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, symLen)
		rng.Read(out[i])
	}
	return out
}

// decodeFrom feeds the (id, payload) pairs to a fresh payload decoder and
// returns copies of the sources it ends up holding (nil where it holds
// none) and whether it finished.
func decodeFrom(t *testing.T, c *Code, ids []int, payloads [][]byte) ([][]byte, bool) {
	t.Helper()
	dec, err := c.NewDecoder(len(payloads[0]))
	if err != nil {
		t.Fatal(err)
	}
	defer dec.Close()
	for i, id := range ids {
		dec.ReceivePayload(id, payloads[i])
	}
	out := make([][]byte, c.Layout().K)
	for i := range out {
		if s := dec.Source(i); s != nil {
			out[i] = append([]byte(nil), s...)
		}
	}
	return out, dec.Done()
}

func TestEncodeDecodeRoundTripNoLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := mustNew(t, 20, 2.0, 20)
	src := randPayloads(rng, 20, 16)
	parity, err := c.Encode(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(parity) != c.Layout().N-c.Layout().K {
		t.Fatalf("parity count %d, want %d", len(parity), c.Layout().N-c.Layout().K)
	}
	ids := make([]int, 20)
	for i := range ids {
		ids[i] = i
	}
	dec, done := decodeFrom(t, c, ids, src)
	if !done {
		t.Fatal("not done with every source delivered")
	}
	assertPayloadsEqual(t, src, dec)
}

func TestDecodeFromParityOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := mustNew(t, 10, 2.0, 20)
	src := randPayloads(rng, 10, 32)
	parity, err := c.Encode(src)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, 10)
	for i := range ids {
		ids[i] = 10 + i // all parity
	}
	dec, done := decodeFrom(t, c, ids, parity)
	if !done {
		t.Fatal("not done with k parity symbols delivered")
	}
	assertPayloadsEqual(t, src, dec)
}

func TestDecodeAnyKOfN(t *testing.T) {
	// The MDS property on real payloads: any k of the n symbols decode.
	rng := rand.New(rand.NewSource(3))
	c := mustNew(t, 8, 2.5, 20)
	l := c.Layout()
	src := randPayloads(rng, l.K, 24)
	parity, err := c.Encode(src)
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([][]byte{}, src...), parity...)
	for trial := 0; trial < 40; trial++ {
		ids := rng.Perm(l.N)[:l.K]
		payloads := make([][]byte, len(ids))
		for i, id := range ids {
			payloads[i] = all[id]
		}
		dec, done := decodeFrom(t, c, ids, payloads)
		if !done {
			t.Fatalf("trial %d ids %v: not done", trial, ids)
		}
		assertPayloadsEqual(t, src, dec)
	}
}

func TestDecodeMultiBlockWithLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := mustNew(t, 30, 2.0, 20)
	if c.NumBlocks() < 2 {
		t.Fatal("want multi-block geometry")
	}
	l := c.Layout()
	src := randPayloads(rng, l.K, 8)
	parity, err := c.Encode(src)
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([][]byte{}, src...), parity...)
	// Lose 40% of packets at random but keep >= k_b per block by retrying.
	for trial := 0; trial < 20; trial++ {
		var ids []int
		var payloads [][]byte
		perBlock := make(map[int]int)
		for id := 0; id < l.N; id++ {
			if rng.Float64() < 0.4 {
				continue
			}
			perBlock[blockIndex(l, id)]++
			ids = append(ids, id)
			payloads = append(payloads, all[id])
		}
		ok := true
		for bi := 0; bi < c.NumBlocks(); bi++ {
			if perBlock[bi] < c.blocks[bi].kb {
				ok = false
			}
		}
		if !ok {
			continue
		}
		dec, done := decodeFrom(t, c, ids, payloads)
		if !done {
			t.Fatalf("trial %d: not done with >= k_b symbols in every block", trial)
		}
		assertPayloadsEqual(t, src, dec)
	}
}

func TestDecodeUndecodableBlockErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := mustNew(t, 10, 2.0, 20)
	src := randPayloads(rng, 10, 8)
	// Only 9 distinct symbols for a k_b=10 block.
	ids := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
	dec, done := decodeFrom(t, c, ids, src[:9])
	if done || dec[9] != nil {
		t.Fatal("decoder finished with too few symbols")
	}
}

func TestDecodeDuplicateSymbolsDoNotHelp(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c := mustNew(t, 5, 2.0, 10)
	src := randPayloads(rng, 5, 8)
	ids := []int{0, 0, 0, 1, 2}
	payloads := [][]byte{src[0], src[0], src[0], src[1], src[2]}
	if _, done := decodeFrom(t, c, ids, payloads); done {
		t.Fatal("decoder finished with duplicates standing in for distinct symbols")
	}
}

func TestEncodeLengthMismatch(t *testing.T) {
	c := mustNew(t, 4, 2.0, 0)
	bad := [][]byte{{1, 2}, {1, 2}, {1, 2, 3}, {1, 2}}
	if _, err := c.Encode(bad); err == nil {
		t.Fatal("Encode accepted ragged payloads")
	}
	if _, err := c.Encode(bad[:2]); err == nil {
		t.Fatal("Encode accepted wrong payload count")
	}
}

func TestDecodeIDPayloadMismatch(t *testing.T) {
	c := mustNew(t, 4, 2.0, 0)
	if _, err := c.NewDecoder(0); err == nil {
		t.Fatal("NewDecoder accepted a zero symbol length")
	}
	for name, feed := range map[string]func(dec core.PayloadDecoder){
		"negative id":    func(dec core.PayloadDecoder) { dec.ReceivePayload(-1, []byte{1}) },
		"id beyond n":    func(dec core.PayloadDecoder) { dec.ReceivePayload(c.Layout().N, []byte{1}) },
		"payload length": func(dec core.PayloadDecoder) { dec.ReceivePayload(0, []byte{1, 2}) },
	} {
		func() {
			dec, err := c.NewDecoder(1)
			if err != nil {
				t.Fatal(err)
			}
			defer dec.Close()
			defer func() {
				if recover() == nil {
					t.Errorf("%s: ReceivePayload did not panic", name)
				}
			}()
			feed(dec)
		}()
	}
}

func TestPropertyAnyKSubsetDecodes(t *testing.T) {
	f := func(seed int64, kRaw, ratioChoice uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + int(kRaw%10)
		ratio := 1.5
		if ratioChoice%2 == 1 {
			ratio = 2.5
		}
		c, err := newRatio(k, ratio, 100)
		if err != nil {
			return false
		}
		l := c.Layout()
		src := randPayloads(rng, k, 4)
		parity, err := c.Encode(src)
		if err != nil {
			return false
		}
		all := append(append([][]byte{}, src...), parity...)
		ids := rng.Perm(l.N)[:k]
		payloads := make([][]byte, k)
		for i, id := range ids {
			payloads[i] = all[id]
		}
		dec, done := decodeFrom(t, c, ids, payloads)
		if !done {
			return false
		}
		for i := range src {
			for j := range src[i] {
				if dec[i][j] != src[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func assertPayloadsEqual(t *testing.T, want, got [][]byte) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("payload count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			t.Fatalf("payload %d length %d, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if want[i][j] != got[i][j] {
				t.Fatalf("payload %d differs at byte %d", i, j)
			}
		}
	}
}

// blockIndex returns the block of the layout that packet id belongs to.
func blockIndex(l core.Layout, id int) int {
	for bi, b := range l.Blocks {
		if slices.Contains(b.Source, id) || slices.Contains(b.Parity, id) {
			return bi
		}
	}
	panic(fmt.Sprintf("packet %d is in no block", id))
}

func TestBufferedSymbols(t *testing.T) {
	c := mustNew(t, 10, 2.0, 10)
	rx := c.NewReceiver()
	if rx.BufferedSymbols() != 0 {
		t.Fatal("fresh receiver buffers symbols")
	}
	l := c.Layout()
	// Fill block 0 short of decodable: 4 of 5 needed.
	for _, id := range l.Blocks[0].Source[:4] {
		rx.Receive(id)
	}
	if got := rx.BufferedSymbols(); got != 4 {
		t.Fatalf("BufferedSymbols = %d, want 4", got)
	}
	// Complete block 0: its symbols stream out.
	rx.Receive(l.Blocks[0].Source[4])
	if got := rx.BufferedSymbols(); got != 0 {
		t.Fatalf("BufferedSymbols = %d after block decode, want 0", got)
	}

	// The running count equals a recount from the received set after
	// every packet of a random arrival order with duplicates.
	c = mustNew(t, 40, 1.5, 12)
	l = c.Layout()
	rx = c.NewReceiver()
	rng := rand.New(rand.NewSource(11))
	seen := make(map[int]bool)
	for i := 0; i < 3*l.N; i++ {
		id := rng.Intn(l.N)
		rx.Receive(id)
		seen[id] = true
		want := 0
		for _, b := range l.Blocks {
			n := 0
			for _, id := range append(append([]int{}, b.Source...), b.Parity...) {
				if seen[id] {
					n++
				}
			}
			if n < len(b.Source) {
				want += n
			}
		}
		if got := rx.BufferedSymbols(); got != want {
			t.Fatalf("after %d packets: BufferedSymbols = %d, recount %d", i+1, got, want)
		}
	}
}

// ratioPartition is the blocking New used before its blocks became a
// function of (K, N): sources dealt into ⌈k/⌊maxBlock/ratio⌋⌉ blocks, each
// rounded to its own n_b in floating point. It stays as ground truth for
// N — which must keep its symbol count — and for the drift report below.
func ratioPartition(k int, ratio float64, maxBlock int) (blocks [][2]int) {
	kmax := int(float64(maxBlock) / ratio)
	b := (k + kmax - 1) / kmax
	aLarge := (k + b - 1) / b
	aSmall := k / b
	iLarge := k - aSmall*b
	for bi := 0; bi < b; bi++ {
		kb := aSmall
		if bi < iLarge {
			kb = aLarge
		}
		nb := int(float64(kb)*ratio + 0.5)
		if nb > maxBlock {
			nb = maxBlock
		}
		if nb < kb {
			nb = kb
		}
		blocks = append(blocks, [2]int{kb, nb})
	}
	return blocks
}

// blockLengths counts the distinct n_b of a partition.
func blockLengths(blocks [][2]int) int {
	lens := map[int]bool{}
	for _, b := range blocks {
		lens[b[1]] = true
	}
	return len(lens)
}

func (c *Code) partition() (blocks [][2]int) {
	for _, bd := range c.blocks {
		blocks = append(blocks, [2]int{bd.kb, bd.nb})
	}
	return blocks
}

// TestBlockingDriftFromRatioPartitioner measures what making the blocks an
// integer function of (k, n) moved: per ratio, how many sender layouts for
// k = 1…4000 differ from the ratio partitioner's (the table is CHANGES.md's
// and README's — a peer built before the change disagrees exactly there),
// with n identical everywhere and every bench, golden and paper-scale
// geometry unchanged. It also counts the layouts with three distinct block
// lengths, which Tx_model_5 serves from InterleaveSchedule's materialised
// fallback, and checks that order against a plain round-robin.
func TestBlockingDriftFromRatioPartitioner(t *testing.T) {
	const maxK = 4000
	for _, want := range []struct {
		ratio            float64
		moved, threeLens int
	}{
		{1.05, 98, 64}, {1.1, 39, 28}, {1.2, 9, 0}, {1.25, 0, 0}, {1.3, 0, 0},
		{1.333, 0, 0}, {1.4, 0, 0}, {1.5, 0, 0}, {1.6, 0, 0}, {1.75, 112, 96},
		{2, 0, 0}, {2.25, 684, 641}, {2.5, 1543, 1459}, {3, 3599, 3442}, {3.5, 3678, 3444}, {4, 3710, 3402},
	} {
		moved, threeLens := 0, 0
		for k := 1; k <= maxK; k++ {
			c := mustNew(t, k, want.ratio, 0)
			ref := ratioPartition(k, want.ratio, MaxBlock)
			n := 0
			for _, b := range ref {
				n += b[1]
			}
			if c.Layout().N != n {
				t.Fatalf("k=%d ratio %g: N = %d, the ratio partitioner sends %d", k, want.ratio, c.Layout().N, n)
			}
			got := c.partition()
			if !slices.Equal(got, ref) {
				moved++
			}
			if blockLengths(ref) > 2 {
				t.Fatalf("k=%d ratio %g: the ratio partitioner itself cut three block lengths", k, want.ratio)
			}
			if blockLengths(got) > 2 {
				if threeLens%100 == 0 {
					assertInterleaveIsRoundRobin(t, c.Layout())
				}
				threeLens++
			}
		}
		t.Logf("ratio %-5g: %4d of %d layouts moved, %4d with three block lengths", want.ratio, moved, maxK, threeLens)
		if moved != want.moved || threeLens != want.threeLens {
			t.Errorf("ratio %g: %d layouts moved (%d with three block lengths), want %d (%d)",
				want.ratio, moved, threeLens, want.moved, want.threeLens)
		}
	}
	// Every geometry a bench workload, golden or paper-scale run uses.
	for _, ratio := range []float64{1.5, 2.5} {
		for _, k := range []int{100, 120, 200, 256, 500, 1000, 2000, 4000, 5000, 10000, 20000} {
			if got, ref := mustNew(t, k, ratio, 0).partition(), ratioPartition(k, ratio, MaxBlock); !slices.Equal(got, ref) {
				t.Errorf("k=%d ratio %g: blocks %v, were %v", k, ratio, got, ref)
			}
		}
	}
	if got, want := fmt.Sprint(mustNew(t, 1001, 2.5, 0).partition()[:3]), "[[101 252] [100 251] [100 250]]"; got != want {
		t.Errorf("k=1001 ratio 2.5: leading blocks %s, want %s", got, want)
	}
}

// assertInterleaveIsRoundRobin checks core.InterleaveSchedule on l against
// the definition of Tx_model_5: one symbol per block per round, sources
// before parities, exhausted blocks dropping out.
func assertInterleaveIsRoundRobin(t *testing.T, l core.Layout) {
	t.Helper()
	var want []int
	for round := 0; len(want) < l.N; round++ {
		for _, b := range l.Blocks {
			switch {
			case round < len(b.Source):
				want = append(want, b.Source[round])
			case round < len(b.Source)+len(b.Parity):
				want = append(want, b.Parity[round-len(b.Source)])
			}
		}
	}
	s := core.InterleaveSchedule(l)
	if got := s.AppendTo(nil); !slices.Equal(got, want) {
		t.Fatalf("k=%d n=%d: InterleaveSchedule is not the round-robin over the blocks", l.K, l.N)
	}
}
