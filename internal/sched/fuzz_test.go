package sched

import (
	"math/rand"
	"testing"

	"fecperf/internal/core"
)

// FuzzSchedulePermutation drives every transmission/reception model over
// fuzzer-chosen layouts and seeds and checks the streaming-schedule
// contract: the schedule covers exactly the id multiset the model
// promises, and random access At(i) agrees with sequential cursor order.
func FuzzSchedulePermutation(f *testing.F) {
	f.Add(int64(1), uint16(40), uint16(100), uint8(3), uint8(2))
	f.Add(int64(7), uint16(5), uint16(12), uint8(1), uint8(0))
	f.Add(int64(-3), uint16(100), uint16(250), uint8(8), uint8(5))
	f.Add(int64(99), uint16(13), uint16(17), uint8(4), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, kRaw, nRaw uint16, blocksRaw, param uint8) {
		k := 1 + int(kRaw%512)
		n := k + int(nRaw%1024)
		var l core.Layout
		if blocksRaw%3 == 0 {
			l = ldgmLayout(k, n)
		} else {
			// Multi-block: distribute k and n-k across blocks as evenly
			// as the FLUTE partitioner would (larger blocks first).
			nb := 1 + int(blocksRaw%8)
			if nb > k {
				nb = k
			}
			l = partitionedLayout(k, n, nb)
		}
		if err := l.Validate(); err != nil {
			t.Fatalf("bad fuzz layout: %v", err)
		}
		r := rand.New(rand.NewSource(seed))

		models := []core.Scheduler{
			TxModel1{}, TxModel2{}, TxModel3{}, TxModel4{}, TxModel5{},
			TxModel6{SourceFraction: 0.05 + float64(param%90)/100},
			RxModel1{SourceCount: int(param) % (l.K + 1)},
			Repeat{Times: 1 + int(param%4)},
			Carousel{Inner: TxModel4{}, Rounds: 1 + int(param%3)},
		}
		for _, m := range models {
			sc := m.Schedule(l, r)
			ids := materialize(sc)
			if len(ids) != sc.Len() {
				t.Fatalf("%s: materialized length %d != Len %d", m.Name(), len(ids), sc.Len())
			}
			checkMultiset(t, m, l, ids)
			cur := sc.Cursor()
			for i, want := range ids {
				got, ok := cur.Next()
				if !ok || got != want {
					t.Fatalf("%s: cursor disagrees with At at %d: (%d,%v) vs %d",
						m.Name(), i, got, ok, want)
				}
			}
		}
	})
}

// partitionedLayout splits k source and n-k parity ids into nb blocks,
// larger blocks first, mimicking the FLUTE blocking shape.
func partitionedLayout(k, n, nb int) core.Layout {
	l := core.Layout{K: k, N: n}
	par := n - k
	srcOff, parOff := 0, k
	for b := 0; b < nb; b++ {
		kb := k / nb
		if b < k%nb {
			kb++
		}
		pb := par / nb
		if b < par%nb {
			pb++
		}
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

// checkMultiset verifies the schedule's id multiset against the model's
// contract.
func checkMultiset(t *testing.T, m core.Scheduler, l core.Layout, ids []int) {
	t.Helper()
	count := map[int]int{}
	for _, id := range ids {
		if id < 0 || id >= l.N {
			t.Fatalf("%s: id %d outside [0,%d)", m.Name(), id, l.N)
		}
		count[id]++
	}
	expectOnce := func(lo, hi int) {
		for id := lo; id < hi; id++ {
			if count[id] != 1 {
				t.Fatalf("%s: id %d appears %d times, want 1", m.Name(), id, count[id])
			}
		}
	}
	switch s := m.(type) {
	case TxModel6:
		// All parity exactly once; a subset of sources at most once.
		expectOnce(l.K, l.N)
		nSrc := 0
		for id := 0; id < l.K; id++ {
			if count[id] > 1 {
				t.Fatalf("tx6: source %d repeated", id)
			}
			nSrc += count[id]
		}
		frac := s.SourceFraction
		if want := int(frac*float64(l.K) + 0.5); nSrc != want {
			t.Fatalf("tx6: drew %d sources, want %d", nSrc, want)
		}
	case RxModel1:
		expectOnce(l.K, l.N)
		nSrc := 0
		for id := 0; id < l.K; id++ {
			if count[id] > 1 {
				t.Fatalf("rx1: source %d repeated", id)
			}
			nSrc += count[id]
		}
		if nSrc != s.SourceCount {
			t.Fatalf("rx1: drew %d sources, want %d", nSrc, s.SourceCount)
		}
	case Repeat:
		for id := 0; id < l.K; id++ {
			if count[id] != s.Times {
				t.Fatalf("repeat: id %d appears %d times, want %d", id, count[id], s.Times)
			}
		}
		for id := l.K; id < l.N; id++ {
			if count[id] != 0 {
				t.Fatalf("repeat: parity id %d transmitted", id)
			}
		}
	case Carousel:
		for id := 0; id < l.N; id++ {
			if count[id] != s.Rounds {
				t.Fatalf("carousel: id %d appears %d times, want %d rounds", id, count[id], s.Rounds)
			}
		}
	default:
		// The plain Tx models are full permutations of [0,N).
		expectOnce(0, l.N)
	}
}
