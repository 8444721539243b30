package core

import (
	"math/rand"
	"testing"
)

// singleBlockLayout builds the canonical large-block layout used by LDGM.
func singleBlockLayout(k, n int) Layout {
	src := make([]int, k)
	for i := range src {
		src[i] = i
	}
	par := make([]int, n-k)
	for i := range par {
		par[i] = k + i
	}
	return Layout{K: k, N: n, Blocks: []Block{{Source: src, Parity: par}}}
}

func TestLayoutValidateOK(t *testing.T) {
	if err := singleBlockLayout(10, 25).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLayoutValidateMultiBlock(t *testing.T) {
	l := Layout{
		K: 4, N: 8,
		Blocks: []Block{
			{Source: []int{0, 1}, Parity: []int{4, 5}},
			{Source: []int{2, 3}, Parity: []int{6, 7}},
		},
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLayoutValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		l    Layout
	}{
		{"zero k", Layout{K: 0, N: 5, Blocks: []Block{{Source: []int{0}}}}},
		{"n below k", Layout{K: 5, N: 3, Blocks: []Block{{Source: []int{0}}}}},
		{"no blocks", Layout{K: 2, N: 4}},
		{"empty block", Layout{K: 2, N: 4, Blocks: []Block{{}}}},
		{"source out of range", Layout{K: 2, N: 4, Blocks: []Block{{Source: []int{0, 2}, Parity: []int{2, 3}}}}},
		{"parity in source range", Layout{K: 2, N: 4, Blocks: []Block{{Source: []int{0, 1}, Parity: []int{1, 3}}}}},
		{"duplicate id", Layout{K: 2, N: 4, Blocks: []Block{{Source: []int{0, 0}, Parity: []int{2, 3}}}}},
		{"incomplete cover", Layout{K: 3, N: 5, Blocks: []Block{{Source: []int{0, 1}, Parity: []int{3, 4}}}}},
	}
	for _, c := range cases {
		if err := c.l.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid layout", c.name)
		}
	}
}

func TestIsSource(t *testing.T) {
	l := singleBlockLayout(3, 6)
	for id := 0; id < 6; id++ {
		if got, want := l.IsSource(id), id < 3; got != want {
			t.Errorf("IsSource(%d) = %v", id, got)
		}
	}
}

func TestExpansionRatio(t *testing.T) {
	if r := singleBlockLayout(10, 25).ExpansionRatio(); r != 2.5 {
		t.Fatalf("ExpansionRatio = %v, want 2.5", r)
	}
}

// countingReceiver decodes after `need` distinct packets (an idealised MDS
// code over the whole object), used to test RunTrial bookkeeping. It
// holds every packet it got until it decodes.
type countingReceiver struct {
	need int
	seen map[int]bool
	k    int
}

func (c *countingReceiver) Receive(id int) bool {
	if c.seen == nil {
		c.seen = make(map[int]bool)
	}
	c.seen[id] = true
	return c.Done()
}
func (c *countingReceiver) ReceiveBatch(ids []int32, arrived uint64) (int, bool, int) {
	return ReceiveEach(c, ids, arrived)
}
func (c *countingReceiver) Reset()     { clear(c.seen) }
func (c *countingReceiver) Done() bool { return len(c.seen) >= c.need }
func (c *countingReceiver) BufferedSymbols() int {
	if c.Done() {
		return 0
	}
	return len(c.seen)
}
func (c *countingReceiver) SourceRecovered() int {
	if c.Done() {
		return c.k
	}
	n := 0
	for id := range c.seen {
		if id < c.k {
			n++
		}
	}
	return n
}

// lossPattern replays a fixed erasure sequence.
type lossPattern struct {
	pat []bool
	i   int
}

func (lp *lossPattern) Lost() bool {
	if lp.i >= len(lp.pat) {
		return false
	}
	v := lp.pat[lp.i]
	lp.i++
	return v
}

func TestRunTrialNoLoss(t *testing.T) {
	sched := SliceSchedule([]int{0, 1, 2, 3, 4, 5})
	rx := &countingReceiver{need: 4, k: 4}
	res := RunTrial(sched, &lossPattern{}, rx, 0)
	if !res.Decoded {
		t.Fatal("not decoded")
	}
	if res.NNecessary != 4 {
		t.Fatalf("NNecessary = %d, want 4", res.NNecessary)
	}
	if res.NReceived != 6 {
		t.Fatalf("NReceived = %d, want 6", res.NReceived)
	}
	if res.NSent != 6 {
		t.Fatalf("NSent = %d, want 6", res.NSent)
	}
	if got := res.Inefficiency(4); got != 1.0 {
		t.Fatalf("Inefficiency = %v, want 1.0", got)
	}
}

func TestRunTrialWithLosses(t *testing.T) {
	sched := SliceSchedule([]int{0, 1, 2, 3, 4, 5})
	// Lose packets at positions 0 and 2; survivors are 1,3,4,5.
	ch := &lossPattern{pat: []bool{true, false, true, false, false, false}}
	rx := &countingReceiver{need: 3, k: 3}
	res := RunTrial(sched, ch, rx, 0)
	if !res.Decoded || res.NNecessary != 3 || res.NReceived != 4 {
		t.Fatalf("got %+v", res)
	}
}

func TestRunTrialFailure(t *testing.T) {
	sched := SliceSchedule([]int{0, 1, 2})
	rx := &countingReceiver{need: 4, k: 4}
	res := RunTrial(sched, &lossPattern{}, rx, 0)
	if res.Decoded {
		t.Fatal("decoded with too few packets")
	}
	if res.NNecessary != 0 {
		t.Fatalf("NNecessary = %d for failed trial", res.NNecessary)
	}
	if res.NReceived != 3 {
		t.Fatalf("NReceived = %d", res.NReceived)
	}
}

func TestRunTrialNSentTruncation(t *testing.T) {
	sched := SliceSchedule([]int{0, 1, 2, 3, 4, 5})
	rx := &countingReceiver{need: 2, k: 2}
	res := RunTrial(sched, &lossPattern{}, rx, 3)
	if res.NSent != 3 || res.NReceived != 3 {
		t.Fatalf("got %+v, want NSent=NReceived=3", res)
	}
}

func TestRunTrialNSentOversizedClamped(t *testing.T) {
	sched := SliceSchedule([]int{0, 1})
	rx := &countingReceiver{need: 1, k: 1}
	res := RunTrial(sched, &lossPattern{}, rx, 99)
	if res.NSent != 2 {
		t.Fatalf("NSent = %d, want 2", res.NSent)
	}
}

func TestRunTrialDuplicatesDoNotDoubleCount(t *testing.T) {
	// A repetition schedule delivers the same IDs twice; the receiver
	// decodes on distinct IDs but NReceived counts every arrival.
	sched := SliceSchedule([]int{0, 0, 1, 1})
	rx := &countingReceiver{need: 2, k: 2}
	res := RunTrial(sched, &lossPattern{}, rx, 0)
	if !res.Decoded {
		t.Fatal("not decoded")
	}
	if res.NNecessary != 3 {
		t.Fatalf("NNecessary = %d, want 3 (duplicate consumed one arrival)", res.NNecessary)
	}
}

// schedFunc adapts a function to the Scheduler interface for tests.
type schedFunc func(l Layout, rng *rand.Rand) Schedule

func (schedFunc) Name() string                                 { return "test" }
func (f schedFunc) Schedule(l Layout, rng *rand.Rand) Schedule { return f(l, rng) }

func TestSchedulerInterfaceUsable(t *testing.T) {
	var s Scheduler = schedFunc(func(l Layout, _ *rand.Rand) Schedule {
		return SequenceSchedule(0, l.N)
	})
	got := s.Schedule(singleBlockLayout(2, 4), rand.New(rand.NewSource(1)))
	if got.Len() != 4 {
		t.Fatalf("schedule length %d, want 4", got.Len())
	}
}

func TestRunTrialTracksMaxBuffered(t *testing.T) {
	sched := SliceSchedule([]int{0, 1, 2, 3, 4, 5})
	rx := &countingReceiver{need: 4, k: 4}
	res := RunTrial(sched, &lossPattern{}, rx, 0)
	// Peak just before decoding completed: 3 buffered symbols.
	if res.MaxBuffered != 3 {
		t.Fatalf("MaxBuffered = %d, want 3", res.MaxBuffered)
	}
}
