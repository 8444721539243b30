package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fecperf/internal/core"
)

// ldgmLayout builds a single-block layout (the LDGM shape).
func ldgmLayout(k, n int) core.Layout {
	src := make([]int, k)
	for i := range src {
		src[i] = i
	}
	par := make([]int, n-k)
	for i := range par {
		par[i] = k + i
	}
	return core.Layout{K: k, N: n, Blocks: []core.Block{{Source: src, Parity: par}}}
}

// rseLayout builds a multi-block layout (the segmented RSE shape) with
// equal blocks of kb source and pb parity symbols.
func rseLayout(blocks, kb, pb int) core.Layout {
	l := core.Layout{K: blocks * kb, N: blocks * (kb + pb)}
	srcOff, parOff := 0, l.K
	for b := 0; b < blocks; b++ {
		var blk core.Block
		for i := 0; i < kb; i++ {
			blk.Source = append(blk.Source, srcOff)
			srcOff++
		}
		for i := 0; i < pb; i++ {
			blk.Parity = append(blk.Parity, parOff)
			parOff++
		}
		l.Blocks = append(l.Blocks, blk)
	}
	return l
}

func isPermutation(ids []int, n int) bool {
	if len(ids) != n {
		return false
	}
	seen := make([]bool, n)
	for _, id := range ids {
		if id < 0 || id >= n || seen[id] {
			return false
		}
		seen[id] = true
	}
	return true
}

func rng() *rand.Rand { return rand.New(rand.NewSource(1)) }

// materialize expands a streaming schedule into the []int order the
// paper's original harness worked with.
func materialize(s core.Schedule) []int {
	return s.AppendTo(make([]int, 0, s.Len()))
}

// draw materialises one schedule for assertion-style tests.
func draw(s core.Scheduler, l core.Layout, r *rand.Rand) []int {
	return materialize(s.Schedule(l, r))
}

func TestAllModelsProducePermutations(t *testing.T) {
	l := ldgmLayout(40, 100)
	for _, s := range All() {
		if s.Name() == "tx6" {
			continue // tx6 sends a subset by design
		}
		ids := draw(s, l, rng())
		if !isPermutation(ids, l.N) {
			t.Errorf("%s: schedule is not a permutation of [0,%d)", s.Name(), l.N)
		}
	}
}

func TestTx1Order(t *testing.T) {
	l := ldgmLayout(5, 12)
	ids := draw(TxModel1{}, l, rng())
	for i, id := range ids {
		if id != i {
			t.Fatalf("tx1 position %d = %d, want %d", i, id, i)
		}
	}
}

func TestTx2SourceSequentialParityRandom(t *testing.T) {
	l := ldgmLayout(50, 125)
	ids := draw(TxModel2{}, l, rng())
	for i := 0; i < 50; i++ {
		if ids[i] != i {
			t.Fatalf("tx2: source position %d = %d", i, ids[i])
		}
	}
	// Parity tail is a permutation of [50,125) and (overwhelmingly) not
	// sorted.
	tail := ids[50:]
	sorted := true
	for i := 1; i < len(tail); i++ {
		if tail[i] < tail[i-1] {
			sorted = false
			break
		}
	}
	if sorted {
		t.Fatal("tx2: parity tail came out sorted; not shuffled")
	}
}

func TestTx3ParityFirst(t *testing.T) {
	l := ldgmLayout(50, 125)
	ids := draw(TxModel3{}, l, rng())
	for i := 0; i < 75; i++ {
		if ids[i] != 50+i {
			t.Fatalf("tx3: parity position %d = %d, want %d", i, ids[i], 50+i)
		}
	}
	for _, id := range ids[75:] {
		if id >= 50 {
			t.Fatalf("tx3: source phase contains parity id %d", id)
		}
	}
}

func TestTx4IsShuffledPermutation(t *testing.T) {
	l := ldgmLayout(100, 250)
	a := draw(TxModel4{}, l, rand.New(rand.NewSource(1)))
	b := draw(TxModel4{}, l, rand.New(rand.NewSource(2)))
	if !isPermutation(a, 250) || !isPermutation(b, 250) {
		t.Fatal("tx4 not a permutation")
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("tx4 schedules identical across different seeds")
	}
}

func TestTx5BlockInterleaving(t *testing.T) {
	l := rseLayout(4, 3, 2) // 4 blocks, 3 source + 2 parity each
	ids := draw(TxModel5{}, l, rng())
	if !isPermutation(ids, l.N) {
		t.Fatal("tx5 not a permutation")
	}
	// First round must contain in-block symbol 0 of each block, i.e. the
	// first source symbol of each block.
	for b := 0; b < 4; b++ {
		if ids[b] != l.Blocks[b].Source[0] {
			t.Fatalf("tx5 round 0 position %d = %d, want %d", b, ids[b], l.Blocks[b].Source[0])
		}
	}
	// Consecutive packets of the same block must be exactly numBlocks
	// apart (uniform geometry): check block of each position.
	blockOf := map[int]int{}
	for bi, b := range l.Blocks {
		for _, id := range append(append([]int{}, b.Source...), b.Parity...) {
			blockOf[id] = bi
		}
	}
	lastPos := map[int]int{}
	for pos, id := range ids {
		bi := blockOf[id]
		if lp, ok := lastPos[bi]; ok {
			if pos-lp != 4 {
				t.Fatalf("tx5: block %d packets %d apart, want 4", bi, pos-lp)
			}
		}
		lastPos[bi] = pos
	}
}

func TestTx5UnevenBlocks(t *testing.T) {
	// Blocks of different sizes: interleaver must still emit everything
	// exactly once.
	l := core.Layout{
		K: 5, N: 9,
		Blocks: []core.Block{
			{Source: []int{0, 1, 2}, Parity: []int{5, 6}},
			{Source: []int{3, 4}, Parity: []int{7, 8}},
		},
	}
	ids := draw(TxModel5{}, l, rng())
	if !isPermutation(ids, 9) {
		t.Fatalf("tx5 uneven blocks: %v not a permutation", ids)
	}
}

func TestTx5LDGMProportionalMix(t *testing.T) {
	// Single block, ratio 2.5: after any prefix, parity count should be
	// within 2 of 1.5× source count.
	l := ldgmLayout(100, 250)
	ids := draw(TxModel5{}, l, rng())
	if !isPermutation(ids, 250) {
		t.Fatal("tx5 (ldgm) not a permutation")
	}
	src, par := 0, 0
	for _, id := range ids {
		if id < 100 {
			src++
		} else {
			par++
		}
		want := 1.5 * float64(src)
		if diff := float64(par) - want; diff > 2.5 || diff < -2.5 {
			t.Fatalf("tx5 (ldgm): after %d packets parity=%d source=%d (imbalance %g)", src+par, par, src, diff)
		}
	}
}

func TestTx6SubsetAndComposition(t *testing.T) {
	l := ldgmLayout(100, 250)
	ids := draw(TxModel6{}, l, rng())
	wantLen := 20 + 150 // 20% source + all parity
	if len(ids) != wantLen {
		t.Fatalf("tx6 length %d, want %d", len(ids), wantLen)
	}
	seen := map[int]bool{}
	nSrc, nPar := 0, 0
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("tx6 repeated id %d", id)
		}
		seen[id] = true
		if id < 100 {
			nSrc++
		} else {
			nPar++
		}
	}
	if nSrc != 20 || nPar != 150 {
		t.Fatalf("tx6 sent %d source, %d parity; want 20, 150", nSrc, nPar)
	}
}

func TestTx6CustomFraction(t *testing.T) {
	l := ldgmLayout(100, 250)
	ids := draw(TxModel6{SourceFraction: 0.5}, l, rng())
	if len(ids) != 50+150 {
		t.Fatalf("tx6(0.5) length %d, want 200", len(ids))
	}
	if got := (TxModel6{SourceFraction: 0.5}).Name(); got != "tx6(frac=0.5)" {
		t.Fatalf("Name = %q", got)
	}
}

func TestTx6BadFractionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("tx6 with fraction 2 did not panic")
		}
	}()
	TxModel6{SourceFraction: 2}.Schedule(ldgmLayout(10, 25), rng())
}

func TestRxModel1(t *testing.T) {
	l := ldgmLayout(100, 250)
	r := RxModel1{SourceCount: 7}
	ids := draw(r, l, rng())
	if len(ids) != 7+150 {
		t.Fatalf("rx1 length %d, want 157", len(ids))
	}
	for i := 0; i < 7; i++ {
		if ids[i] >= 100 {
			t.Fatalf("rx1 position %d is parity id %d", i, ids[i])
		}
	}
	for _, id := range ids[7:] {
		if id < 100 {
			t.Fatalf("rx1 parity phase contains source id %d", id)
		}
	}
	if r.Name() == "" {
		t.Fatal("rx1 has empty name")
	}
}

func TestRxModel1BoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("rx1 with too many sources did not panic")
		}
	}()
	RxModel1{SourceCount: 11}.Schedule(ldgmLayout(10, 25), rng())
}

func TestRepeatSchedule(t *testing.T) {
	l := ldgmLayout(10, 10)
	ids := draw(Repeat{}, l, rng())
	if len(ids) != 20 {
		t.Fatalf("repeat×2 length %d, want 20", len(ids))
	}
	count := map[int]int{}
	for _, id := range ids {
		count[id]++
	}
	for id := 0; id < 10; id++ {
		if count[id] != 2 {
			t.Fatalf("id %d sent %d times, want 2", id, count[id])
		}
	}
	if got := (Repeat{Times: 3}).Name(); got != "repeat(x=3)" {
		t.Fatalf("Name = %q", got)
	}
}

func TestPropertySchedulesCoverAllParity(t *testing.T) {
	// Every model transmits every parity packet exactly once.
	f := func(seed int64, kRaw uint8) bool {
		k := 4 + int(kRaw%60)
		n := k * 5 / 2
		l := ldgmLayout(k, n)
		r := rand.New(rand.NewSource(seed))
		for _, s := range All() {
			count := map[int]int{}
			for _, id := range draw(s, l, r) {
				count[id]++
			}
			for id := k; id < n; id++ {
				if count[id] != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMaterializeMatchesCursor(t *testing.T) {
	l := ldgmLayout(30, 75)
	for _, s := range All() {
		sc := s.Schedule(l, rng())
		ids := materialize(sc)
		cur := sc.Cursor()
		for i, want := range ids {
			got, ok := cur.Next()
			if !ok || got != want {
				t.Fatalf("%s: cursor position %d = (%d, %v), want %d", s.Name(), i, got, ok, want)
			}
		}
		if _, ok := cur.Next(); ok {
			t.Fatalf("%s: cursor outlived materialized order", s.Name())
		}
	}
}

func TestSchedulesAreRepeatable(t *testing.T) {
	// A drawn schedule is a pure function of position: re-evaluating or
	// re-materialising it never changes it (randomness is captured at
	// draw time, not at evaluation time).
	l := ldgmLayout(40, 100)
	for _, s := range All() {
		sc := s.Schedule(l, rng())
		a, b := materialize(sc), materialize(sc)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: schedule changed between evaluations at %d", s.Name(), i)
			}
		}
	}
}
