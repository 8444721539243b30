package channel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestValidateGilbert(t *testing.T) {
	good := [][2]float64{{0, 0}, {1, 1}, {0.5, 0.3}}
	for _, g := range good {
		if err := ValidateGilbert(g[0], g[1]); err != nil {
			t.Errorf("ValidateGilbert(%v) = %v", g, err)
		}
	}
	bad := [][2]float64{{-0.1, 0.5}, {0.5, -0.1}, {1.1, 0.5}, {0.5, 1.1}}
	for _, g := range bad {
		if err := ValidateGilbert(g[0], g[1]); err == nil {
			t.Errorf("ValidateGilbert(%v) accepted invalid params", g)
		}
	}
}

func TestNewGilbertPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewGilbert(-1, 0) did not panic")
		}
	}()
	NewGilbert(-1, 0, rand.New(rand.NewSource(1)))
}

func TestGilbertPZeroIsPerfect(t *testing.T) {
	g := NewGilbert(0, 0.5, rand.New(rand.NewSource(1)))
	for i := 0; i < 10000; i++ {
		if g.Lost() {
			t.Fatal("p=0 channel lost a packet")
		}
	}
}

func TestGilbertPOneQZeroLosesAllButPrefix(t *testing.T) {
	// p=1: the chain leaves no-loss immediately; q=0: it never returns.
	g := NewGilbert(1, 0, rand.New(rand.NewSource(1)))
	for i := 0; i < 100; i++ {
		if !g.Lost() {
			t.Fatalf("transmission %d survived on a p=1,q=0 channel", i)
		}
	}
}

func TestGilbertStationaryLossRate(t *testing.T) {
	// Empirical loss rate must converge to p/(p+q).
	cases := [][2]float64{{0.1, 0.9}, {0.5, 0.5}, {0.05, 0.2}, {0.3, 0.7}}
	for _, c := range cases {
		p, q := c[0], c[1]
		g := NewGilbert(p, q, rand.New(rand.NewSource(42)))
		const n = 200000
		lost := 0
		for i := 0; i < n; i++ {
			if g.Lost() {
				lost++
			}
		}
		got := float64(lost) / n
		want := GlobalLoss(p, q)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("p=%g q=%g: empirical loss %g, want %g", p, q, got, want)
		}
	}
}

func TestGilbertBurstLengths(t *testing.T) {
	// Mean burst length must converge to 1/q.
	p, q := 0.05, 0.25
	g := NewGilbert(p, q, rand.New(rand.NewSource(7)))
	bursts, curLen, total := 0, 0, 0
	for i := 0; i < 500000; i++ {
		if g.Lost() {
			curLen++
		} else if curLen > 0 {
			bursts++
			total += curLen
			curLen = 0
		}
	}
	if bursts == 0 {
		t.Fatal("no bursts observed")
	}
	mean := float64(total) / float64(bursts)
	if want := MeanBurstLength(q); math.Abs(mean-want) > 0.2 {
		t.Errorf("mean burst %g, want %g", mean, want)
	}
}

func TestGlobalLoss(t *testing.T) {
	cases := []struct{ p, q, want float64 }{
		{0, 0.5, 0},
		{0, 0, 0},
		{0.5, 0.5, 0.5},
		{0.2, 0.8, 0.2},
		{1, 0, 1},
	}
	for _, c := range cases {
		if got := GlobalLoss(c.p, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("GlobalLoss(%g,%g) = %g, want %g", c.p, c.q, got, c.want)
		}
	}
}

func TestBernoulliIsMemoryless(t *testing.T) {
	// For an IID channel the loss probability conditioned on the previous
	// outcome must equal the unconditional one.
	p := 0.3
	g := BernoulliChannel(p).New(9)
	const n = 300000
	var lossAfterLoss, afterLoss, lossAfterOK, afterOK int
	prev := g.Lost()
	for i := 1; i < n; i++ {
		cur := g.Lost()
		if prev {
			afterLoss++
			if cur {
				lossAfterLoss++
			}
		} else {
			afterOK++
			if cur {
				lossAfterOK++
			}
		}
		prev = cur
	}
	pAfterLoss := float64(lossAfterLoss) / float64(afterLoss)
	pAfterOK := float64(lossAfterOK) / float64(afterOK)
	if math.Abs(pAfterLoss-pAfterOK) > 0.02 {
		t.Errorf("loss not memoryless: P(loss|loss)=%g P(loss|ok)=%g", pAfterLoss, pAfterOK)
	}
	if math.Abs(pAfterOK-p) > 0.02 {
		t.Errorf("loss rate %g, want %g", pAfterOK, p)
	}
}

func TestNoLoss(t *testing.T) {
	ch := NoLossChannel().New(1)
	for i := 0; i < 100; i++ {
		if ch.Lost() {
			t.Fatal("NoLoss lost a packet")
		}
	}
}

func TestTraceReplayAndWrap(t *testing.T) {
	tr := &Trace{Pattern: []bool{true, false, false}}
	want := []bool{true, false, false, true, false, false}
	for i, w := range want {
		if got := tr.Lost(); got != w {
			t.Fatalf("trace position %d = %v, want %v", i, got, w)
		}
	}
}

func TestTraceNoWrap(t *testing.T) {
	tr := &Trace{Pattern: []bool{true, true}, NoWrap: true}
	tr.Lost()
	tr.Lost()
	for i := 0; i < 5; i++ {
		if tr.Lost() {
			t.Fatal("NoWrap trace lost a packet past its end")
		}
	}
}

func TestEmptyTraceNeverLoses(t *testing.T) {
	tr := &Trace{}
	if tr.Lost() {
		t.Fatal("empty trace lost a packet")
	}
}

func TestEstimateGilbertRecoversParameters(t *testing.T) {
	p, q := 0.0109, 0.7915 // the Amherst→LA parameters of Section 6.2.1
	g := NewGilbert(p, q, rand.New(rand.NewSource(11)))
	trace := make([]bool, 2_000_000)
	for i := range trace {
		trace[i] = g.Lost()
	}
	gotP, gotQ, err := EstimateGilbert(trace)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gotP-p) > 0.002 {
		t.Errorf("estimated p=%g, want %g", gotP, p)
	}
	if math.Abs(gotQ-q) > 0.05 {
		t.Errorf("estimated q=%g, want %g", gotQ, q)
	}
}

func TestEstimateGilbertShortTrace(t *testing.T) {
	if _, _, err := EstimateGilbert([]bool{true}); err == nil {
		t.Fatal("EstimateGilbert accepted a 1-sample trace")
	}
}

func TestEstimateGilbertAllReceived(t *testing.T) {
	p, q, err := EstimateGilbert(make([]bool, 100))
	if err != nil || p != 0 || q != 0 {
		t.Fatalf("got p=%g q=%g err=%v for loss-free trace", p, q, err)
	}
}

func TestPropertyEstimateRoundTrip(t *testing.T) {
	f := func(pRaw, qRaw uint16, seed int64) bool {
		p := 0.05 + 0.9*float64(pRaw)/65535
		q := 0.05 + 0.9*float64(qRaw)/65535
		g := NewGilbert(p, q, rand.New(rand.NewSource(seed)))
		trace := make([]bool, 400000)
		for i := range trace {
			trace[i] = g.Lost()
		}
		gp, gq, err := EstimateGilbert(trace)
		if err != nil {
			return false
		}
		return math.Abs(gp-p) < 0.05 && math.Abs(gq-q) < 0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestExpectedReceived(t *testing.T) {
	if got := ExpectedReceived(1000, 0.5, 0.5); math.Abs(got-500) > 1e-9 {
		t.Fatalf("ExpectedReceived = %g, want 500", got)
	}
	if got := ExpectedReceived(1000, 0, 1); got != 1000 {
		t.Fatalf("ExpectedReceived = %g, want 1000", got)
	}
}

func TestDecodingFeasible(t *testing.T) {
	// ratio 1.5, k=100, nsent=150: feasible iff p_global <= 1/3.
	if !DecodingFeasible(100, 150, 0.2, 0.8, 1.0) { // p_global = 0.2
		t.Fatal("feasible point reported infeasible")
	}
	if DecodingFeasible(100, 150, 0.5, 0.5, 1.0) { // p_global = 0.5
		t.Fatal("infeasible point reported feasible")
	}
}

func TestLimitQBoundary(t *testing.T) {
	// On the boundary q = p*inef/(ratio-inef), expected received ==
	// inef*k exactly.
	p, ratio := 0.4, 2.5
	q, ok := LimitQ(p, ratio, 1.0)
	if !ok {
		t.Fatal("LimitQ reported infeasible")
	}
	k := 1000
	nsent := int(ratio * float64(k))
	got := ExpectedReceived(nsent, p, q)
	if math.Abs(got-float64(k)) > 1e-6 {
		t.Fatalf("boundary expected-received %g, want %d", got, k)
	}
}

func TestLimitQInfeasibleRatio(t *testing.T) {
	if _, ok := LimitQ(0.5, 1.0, 1.0); ok {
		t.Fatal("ratio == inefficiency should be infeasible")
	}
	if _, ok := LimitQ(0.9, 1.5, 1.0); ok {
		// q would need to be 1.8 > 1.
		t.Fatal("q>1 case should be infeasible")
	}
}

func TestFeasibleFractionOrdering(t *testing.T) {
	// Figure 6: the ratio-2.5 code covers strictly more of the grid than
	// the ratio-1.5 one.
	f15 := FeasibleFraction(1.5, 14)
	f25 := FeasibleFraction(2.5, 14)
	if f25 <= f15 {
		t.Fatalf("feasible fraction 2.5 (%g) not larger than 1.5 (%g)", f25, f15)
	}
	if f15 <= 0 || f25 >= 1 {
		t.Fatalf("degenerate fractions: %g, %g", f15, f25)
	}
	if FeasibleFraction(1.5, 1) != 0 {
		t.Fatal("gridSize<2 should return 0")
	}
}

func TestFactories(t *testing.T) {
	gf := GilbertChannel(0.1, 0.9)
	if gf.String() != "gilbert(p=0.1,q=0.9)" {
		t.Fatalf("String = %q", gf)
	}
	ch := gf.New(1)
	lost := 0
	for i := 0; i < 10000; i++ {
		if ch.Lost() {
			lost++
		}
	}
	if lost == 0 || lost == 10000 {
		t.Fatalf("spec channel degenerate: %d/10000 lost", lost)
	}
	nf := NoLossChannel()
	if nf.String() != "noloss" {
		t.Fatalf("String = %q, want the parseable noloss", nf)
	}
	if nf.New(1).Lost() {
		t.Fatal("noloss channel lost a packet")
	}
}

func TestMeanBurstLengthQZero(t *testing.T) {
	if !math.IsInf(MeanBurstLength(0), 1) {
		t.Fatal("MeanBurstLength(0) not +Inf")
	}
}
