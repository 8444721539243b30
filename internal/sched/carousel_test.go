package sched

import (
	"math/rand"
	"testing"

	"fecperf/internal/channel"
	"fecperf/internal/core"
	"fecperf/internal/ldpc"
)

func TestCarouselDefaults(t *testing.T) {
	c := Carousel{}
	if c.Name() != "carousel(inner=tx4,rounds=2)" {
		t.Fatalf("Name = %q", c.Name())
	}
	l := ldgmLayout(10, 25)
	ids := draw(c, l, rng())
	if len(ids) != 50 {
		t.Fatalf("schedule length %d, want 50", len(ids))
	}
	count := map[int]int{}
	for _, id := range ids {
		count[id]++
	}
	for id := 0; id < 25; id++ {
		if count[id] != 2 {
			t.Fatalf("id %d transmitted %d times, want 2", id, count[id])
		}
	}
}

func TestCarouselRoundsReshuffled(t *testing.T) {
	c := Carousel{Rounds: 2}
	l := ldgmLayout(50, 125)
	ids := draw(c, l, rng())
	first, second := ids[:125], ids[125:]
	same := true
	for i := range first {
		if first[i] != second[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("carousel rounds identical; inner model not re-randomised")
	}
}

func TestCarouselInnerModel(t *testing.T) {
	c := Carousel{Inner: TxModel1{}, Rounds: 3}
	l := ldgmLayout(4, 10)
	ids := draw(c, l, rng())
	if len(ids) != 30 {
		t.Fatalf("length %d, want 30", len(ids))
	}
	for r := 0; r < 3; r++ {
		for i := 0; i < 10; i++ {
			if ids[r*10+i] != i {
				t.Fatalf("round %d position %d = %d, want %d (tx1 is deterministic)", r, i, ids[r*10+i], i)
			}
		}
	}
}

func TestCarouselBeatsSinglePassUnderHeavyLoss(t *testing.T) {
	// At 60% loss with ratio 1.5, a single pass cannot deliver k packets
	// (1.5 × 0.4 = 0.6 < 1); five carousel rounds leave each id missing
	// with probability 0.6^5 ≈ 8%, comfortably inside the staircase
	// decoder's reach.
	code, err := ldpc.New(ldpc.Params{K: 300, N: 450, Variant: ldpc.Staircase, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	l := code.Layout()
	mkChannel := func(seed int64) core.Channel {
		return channel.BernoulliChannel(0.6).New(uint64(seed))
	}

	singleOK, carouselOK := 0, 0
	const trials = 10
	for i := 0; i < trials; i++ {
		r := rand.New(rand.NewSource(int64(i)))
		res := core.RunTrial(TxModel4{}.Schedule(l, r), mkChannel(int64(i)), code.NewReceiver(), 0)
		if res.Decoded {
			singleOK++
		}
		res = core.RunTrial(Carousel{Rounds: 5}.Schedule(l, r), mkChannel(int64(i)), code.NewReceiver(), 0)
		if res.Decoded {
			carouselOK++
		}
	}
	if singleOK > 0 {
		t.Fatalf("single pass decoded %d/%d at 60%% loss with ratio 1.5 (impossible on average)", singleOK, trials)
	}
	if carouselOK < trials {
		t.Fatalf("carousel decoded only %d/%d", carouselOK, trials)
	}
}

func TestCarouselPanicsOnNegativeRounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for rounds=-1")
		}
	}()
	Carousel{Rounds: -1}.Schedule(ldgmLayout(4, 10), rng())
}
