package ldpc

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, p Params) *Code {
	t.Helper()
	c, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func allVariants() []Variant { return []Variant{Plain, Staircase, Triangle} }

func TestNewRejectsBadParams(t *testing.T) {
	cases := []Params{
		{K: 0, N: 10},
		{K: -1, N: 10},
		{K: 10, N: 10},
		{K: 10, N: 5},
		{K: 10, N: 20, LeftDegree: -2},
		{K: 10, N: 20, TriangleDensity: -1},
	}
	for _, p := range cases {
		if _, err := New(p); err == nil {
			t.Errorf("New(%+v) accepted invalid params", p)
		}
	}
}

func TestVariantNames(t *testing.T) {
	if Plain.String() != "ldgm" || Staircase.String() != "ldgm-staircase" || Triangle.String() != "ldgm-triangle" {
		t.Fatal("unexpected variant names")
	}
	if Variant(42).String() == "" {
		t.Fatal("unknown variant should still stringify")
	}
}

func TestConstructionDeterministic(t *testing.T) {
	for _, v := range allVariants() {
		a := mustNew(t, Params{K: 50, N: 125, Variant: v, Seed: 7})
		b := mustNew(t, Params{K: 50, N: 125, Variant: v, Seed: 7})
		for i := 0; i < a.NumEquations(); i++ {
			ra, rb := a.EquationVars(i), b.EquationVars(i)
			if len(ra) != len(rb) {
				t.Fatalf("%v: row %d weight differs", v, i)
			}
			for j := range ra {
				if ra[j] != rb[j] {
					t.Fatalf("%v: row %d differs at %d", v, i, j)
				}
			}
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := mustNew(t, Params{K: 100, N: 250, Variant: Staircase, Seed: 1})
	b := mustNew(t, Params{K: 100, N: 250, Variant: Staircase, Seed: 2})
	same := true
	for i := 0; i < a.NumEquations() && same; i++ {
		ra, rb := a.EquationVars(i), b.EquationVars(i)
		if len(ra) != len(rb) {
			same = false
			break
		}
		for j := range ra {
			if ra[j] != rb[j] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("two seeds produced identical matrices")
	}
}

// columnDegrees returns how many equations each source column appears in.
func columnDegrees(c *Code) []int {
	deg := make([]int, c.Layout().K)
	for i := 0; i < c.NumEquations(); i++ {
		for _, v := range c.EquationVars(i) {
			if int(v) < c.Layout().K {
				deg[v]++
			}
		}
	}
	return deg
}

func TestLeftDegreeInvariant(t *testing.T) {
	for _, v := range allVariants() {
		c := mustNew(t, Params{K: 200, N: 500, Variant: v, Seed: 3})
		for col, d := range columnDegrees(c) {
			// Degree is LeftDegree, +1 possible for empty-row patching.
			if d < 3 || d > 4 {
				t.Fatalf("%v: source column %d has degree %d, want 3 (or 4 after patch)", v, col, d)
			}
		}
	}
}

func TestNoEmptySourceRows(t *testing.T) {
	for _, v := range allVariants() {
		c := mustNew(t, Params{K: 30, N: 300, Variant: v, Seed: 4})
		for i := 0; i < c.NumEquations(); i++ {
			hasSource := false
			for _, vv := range c.EquationVars(i) {
				if int(vv) < 30 {
					hasSource = true
					break
				}
			}
			if !hasSource {
				t.Fatalf("%v: equation %d has no source variable", v, i)
			}
		}
	}
}

func TestRightSideStructure(t *testing.T) {
	k, n := 40, 100
	m := n - k
	type rowSet map[int32]bool
	parityEntries := func(c *Code, i int) rowSet {
		s := rowSet{}
		for _, v := range c.EquationVars(i) {
			if int(v) >= k {
				s[v] = true
			}
		}
		return s
	}

	plain := mustNew(t, Params{K: k, N: n, Variant: Plain, Seed: 5})
	for i := 0; i < m; i++ {
		s := parityEntries(plain, i)
		if len(s) != 1 || !s[int32(k+i)] {
			t.Fatalf("plain: equation %d parity side %v, want {%d}", i, s, k+i)
		}
	}

	sc := mustNew(t, Params{K: k, N: n, Variant: Staircase, Seed: 5})
	for i := 0; i < m; i++ {
		s := parityEntries(sc, i)
		want := 2
		if i == 0 {
			want = 1
		}
		if len(s) != want || !s[int32(k+i)] || (i > 0 && !s[int32(k+i-1)]) {
			t.Fatalf("staircase: equation %d parity side %v", i, s)
		}
	}

	tri := mustNew(t, Params{K: k, N: n, Variant: Triangle, Seed: 5})
	extraTotal := 0
	for i := 0; i < m; i++ {
		s := parityEntries(tri, i)
		if !s[int32(k+i)] {
			t.Fatalf("triangle: equation %d missing diagonal", i)
		}
		if i > 0 && !s[int32(k+i-1)] {
			t.Fatalf("triangle: equation %d missing staircase entry", i)
		}
		for v := range s {
			if int(v) > k+i {
				t.Fatalf("triangle: equation %d has entry above diagonal (%d)", i, v)
			}
		}
		base := 2
		if i == 0 {
			base = 1
		}
		extraTotal += len(s) - base
	}
	if extraTotal == 0 {
		t.Fatal("triangle: no sub-diagonal fill at all")
	}
}

func TestTriangleDenserThanStaircase(t *testing.T) {
	sc := mustNew(t, Params{K: 200, N: 500, Variant: Staircase, Seed: 6})
	tri := mustNew(t, Params{K: 200, N: 500, Variant: Triangle, Seed: 6})
	wsc, wtri := 0, 0
	for i := 0; i < sc.NumEquations(); i++ {
		wsc += sc.RowWeight(i)
		wtri += tri.RowWeight(i)
	}
	if wtri <= wsc {
		t.Fatalf("triangle total weight %d not greater than staircase %d", wtri, wsc)
	}
}

func TestEncodeSatisfiesAllEquations(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, v := range allVariants() {
		c := mustNew(t, Params{K: 60, N: 150, Variant: v, Seed: 8})
		src := make([][]byte, 60)
		for i := range src {
			src[i] = make([]byte, 16)
			rng.Read(src[i])
		}
		parity, err := c.Encode(src)
		if err != nil {
			t.Fatal(err)
		}
		// Every check equation must XOR to zero.
		for i := 0; i < c.NumEquations(); i++ {
			sum := make([]byte, 16)
			for _, vv := range c.EquationVars(i) {
				var p []byte
				if int(vv) < 60 {
					p = src[vv]
				} else {
					p = parity[int(vv)-60]
				}
				for b := range sum {
					sum[b] ^= p[b]
				}
			}
			for b := range sum {
				if sum[b] != 0 {
					t.Fatalf("%v: equation %d does not sum to zero", v, i)
				}
			}
		}
	}
}

func TestEncodeRejectsBadInput(t *testing.T) {
	c := mustNew(t, Params{K: 4, N: 10, Variant: Staircase})
	if _, err := c.Encode(make([][]byte, 3)); err == nil {
		t.Fatal("Encode accepted wrong source count")
	}
	ragged := [][]byte{{1}, {1, 2}, {1}, {1}}
	if _, err := c.Encode(ragged); err == nil {
		t.Fatal("Encode accepted ragged payloads")
	}
}

func TestStructuralDecodeNoLoss(t *testing.T) {
	for _, v := range allVariants() {
		c := mustNew(t, Params{K: 100, N: 250, Variant: v, Seed: 9})
		rx := c.NewReceiver()
		done := false
		for id := 0; id < 100; id++ {
			done = rx.Receive(id)
		}
		if !done || !rx.Done() {
			t.Fatalf("%v: not decoded after all source packets", v)
		}
		if rx.SourceRecovered() != 100 {
			t.Fatalf("%v: SourceRecovered = %d", v, rx.SourceRecovered())
		}
	}
}

func TestStructuralDecodeWithRandomLoss(t *testing.T) {
	// Receive a random 1.4k-subset of packets: staircase/triangle should
	// nearly always decode (average inefficiency is ~1.15 at this size).
	rng := rand.New(rand.NewSource(10))
	for _, v := range []Variant{Staircase, Triangle} {
		c := mustNew(t, Params{K: 500, N: 1250, Variant: v, Seed: 42})
		successes := 0
		for trial := 0; trial < 10; trial++ {
			rx := c.NewReceiver()
			perm := rng.Perm(1250)
			done := false
			for _, id := range perm[:700] { // 1.4*k
				if rx.Receive(id) {
					done = true
					break
				}
			}
			if done {
				successes++
			}
		}
		if successes < 8 {
			t.Fatalf("%v: only %d/10 decodes from 1.4k random packets", v, successes)
		}
	}
}

func TestPeelingNeverBeatsGauss(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, v := range allVariants() {
		c := mustNew(t, Params{K: 40, N: 100, Variant: v, Seed: 13})
		for trial := 0; trial < 50; trial++ {
			nRecv := 40 + rng.Intn(30)
			perm := rng.Perm(100)
			received := make([]bool, 100)
			rx := c.NewReceiver()
			peelOK := false
			for _, id := range perm[:nRecv] {
				received[id] = true
				if rx.Receive(id) {
					peelOK = true
				}
			}
			gaussOK := c.GaussDecodable(received)
			if peelOK && !gaussOK {
				t.Fatalf("%v trial %d: peeling decoded but Gauss did not", v, trial)
			}
		}
	}
}

func TestGaussDecodableNoErasures(t *testing.T) {
	c := mustNew(t, Params{K: 10, N: 25, Variant: Staircase})
	received := make([]bool, 25)
	for i := range received {
		received[i] = true
	}
	if !c.GaussDecodable(received) {
		t.Fatal("GaussDecodable false with everything received")
	}
	// Source all received, parity all lost: still decodable.
	for i := 10; i < 25; i++ {
		received[i] = false
	}
	if !c.GaussDecodable(received) {
		t.Fatal("GaussDecodable false with all source received")
	}
}

func TestGaussUndecodableWhenTooFewPackets(t *testing.T) {
	c := mustNew(t, Params{K: 20, N: 50, Variant: Triangle, Seed: 14})
	received := make([]bool, 50)
	for i := 0; i < 15; i++ { // fewer than k packets in total
		received[i] = true
	}
	if c.GaussDecodable(received) {
		t.Fatal("GaussDecodable true with fewer than k packets")
	}
}

func TestPayloadDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, v := range allVariants() {
		c := mustNew(t, Params{K: 80, N: 200, Variant: v, Seed: 16})
		src := make([][]byte, 80)
		for i := range src {
			src[i] = make([]byte, 12)
			rng.Read(src[i])
		}
		parity, err := c.Encode(src)
		if err != nil {
			t.Fatal(err)
		}
		all := append(append([][]byte{}, src...), parity...)

		dec := c.NewPayloadDecoder(12)
		perm := rng.Perm(200)
		for _, id := range perm {
			if dec.ReceivePayload(id, all[id]) {
				break
			}
		}
		if !dec.Done() {
			t.Fatalf("%v: payload decode did not finish even with all packets", v)
		}
		for i := range src {
			got := dec.Source(i)
			for b := range src[i] {
				if got[b] != src[i][b] {
					t.Fatalf("%v: source %d differs at byte %d", v, i, b)
				}
			}
		}
	}
}

func TestPayloadDecodeRecoversLostSource(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	c := mustNew(t, Params{K: 50, N: 150, Variant: Staircase, Seed: 18})
	src := make([][]byte, 50)
	for i := range src {
		src[i] = make([]byte, 8)
		rng.Read(src[i])
	}
	parity, err := c.Encode(src)
	if err != nil {
		t.Fatal(err)
	}
	dec := c.NewPayloadDecoder(8)
	// Drop source symbols 0..9 entirely; deliver the rest + all parity.
	for id := 10; id < 50; id++ {
		dec.ReceivePayload(id, src[id])
	}
	for i, p := range parity {
		if dec.ReceivePayload(50+i, p) {
			break
		}
	}
	if !dec.Done() {
		t.Fatal("decoder did not recover the 10 missing source symbols")
	}
	for i := 0; i < 10; i++ {
		got := dec.Source(i)
		for b := range src[i] {
			if got[b] != src[i][b] {
				t.Fatalf("recovered source %d differs at byte %d", i, b)
			}
		}
	}
}

func TestDuplicateDeliveriesAreNoops(t *testing.T) {
	c := mustNew(t, Params{K: 30, N: 75, Variant: Triangle, Seed: 19})
	rx := c.NewReceiver()
	for i := 0; i < 10; i++ {
		rx.Receive(5)
	}
	if rx.SourceRecovered() != 1 {
		t.Fatalf("SourceRecovered = %d after duplicate deliveries", rx.SourceRecovered())
	}
}

func TestReceiveAfterDoneIsNoop(t *testing.T) {
	c := mustNew(t, Params{K: 5, N: 12, Variant: Staircase, Seed: 20})
	rx := c.NewReceiver()
	for id := 0; id < 5; id++ {
		rx.Receive(id)
	}
	if !rx.Done() {
		t.Fatal("not done after all source")
	}
	if !rx.Receive(7) {
		t.Fatal("Receive after done returned false")
	}
}

func TestReceiveOutOfRangePanics(t *testing.T) {
	c := mustNew(t, Params{K: 5, N: 12, Variant: Plain})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on out-of-range id")
		}
	}()
	c.NewReceiver().Receive(100)
}

func TestPayloadOnStructuralDecoderPanics(t *testing.T) {
	c := mustNew(t, Params{K: 5, N: 12, Variant: Plain})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for ReceivePayload on structural decoder")
		}
	}()
	c.NewReceiver().(*Decoder).ReceivePayload(0, []byte{1})
}

func TestStaircaseBeatsPlainLDGM(t *testing.T) {
	// The paper: the staircase variation "largely improves" efficiency.
	// Measure average packets-to-decode over random receptions.
	rng := rand.New(rand.NewSource(21))
	avgNeeded := func(v Variant) float64 {
		c := mustNew(t, Params{K: 300, N: 750, Variant: v, Seed: 22})
		total, trials := 0, 30
		for trial := 0; trial < trials; trial++ {
			rx := c.NewReceiver()
			perm := rng.Perm(750)
			needed := 750
			for i, id := range perm {
				if rx.Receive(id) {
					needed = i + 1
					break
				}
			}
			total += needed
		}
		return float64(total) / float64(trials)
	}
	plain := avgNeeded(Plain)
	sc := avgNeeded(Staircase)
	if sc >= plain {
		t.Fatalf("staircase needs %.1f packets on average, plain %.1f; expected staircase better", sc, plain)
	}
}

// feedBorrowed delivers ids to dec the way a transport does: through one
// read buffer that is overwritten as soon as ReceivePayload returns. A
// decoder that kept a view of the caller's payload — parity is folded into
// the equations, not stored — would decode garbage. It stops at Done and
// returns how many of ids it delivered.
func feedBorrowed(dec *Decoder, all [][]byte, ids []int, rng *rand.Rand) int {
	buf := make([]byte, len(all[0]))
	for i, id := range ids {
		copy(buf, all[id])
		done := dec.ReceivePayload(id, buf)
		rng.Read(buf)
		if done {
			return i + 1
		}
	}
	return len(ids)
}

// knownParity counts the parity symbols dec has received or rebuilt.
func knownParity(dec *Decoder) (count int) {
	for id := dec.code.k; id < dec.code.n; id++ {
		if dec.Known(id) {
			count++
		}
	}
	return count
}

// TestPropertyDecodedSourcesMatchEncoding is the payload decoder's
// differential test over random (variant, k, n, symbol length, seed,
// arrival order, loss): peeling plus the Gaussian step decodes exactly the
// receptions the Gaussian reference calls decodable, and every source it
// reports — received, peeled or eliminated — is byte-equal to the
// encoder's, with the caller's buffer destroyed after each delivery.
func TestPropertyDecodedSourcesMatchEncoding(t *testing.T) {
	var decoded, stalled, parityByGauss int
	f := func(seed int64, variantRaw, kRaw, nRaw, lenRaw, lossRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + int(kRaw)%64
		n := k + 1 + int(nRaw)%(2*k)
		symLen := 1 + int(lenRaw)%40
		c, err := New(Params{K: k, N: n, Variant: allVariants()[int(variantRaw)%3], Seed: seed})
		if err != nil {
			return false
		}
		src := make([][]byte, k)
		for i := range src {
			src[i] = make([]byte, symLen)
			rng.Read(src[i])
		}
		parity, err := c.Encode(src)
		if err != nil {
			return false
		}
		all := append(append([][]byte{}, src...), parity...)
		ids := rng.Perm(n)
		ids = ids[:n-n*int(lossRaw%70)/100]

		dec := c.NewPayloadDecoder(symLen)
		defer dec.Close()
		received := make([]bool, n)
		for _, id := range ids[:feedBorrowed(dec, all, ids, rng)] {
			received[id] = true
		}
		if !dec.Done() {
			stalled++
			if before := knownParity(dec); dec.SolveGauss() && knownParity(dec) > before {
				parityByGauss++
			}
		}
		if dec.Done() != c.GaussDecodable(received) {
			return false
		}
		if dec.Done() {
			decoded++
		}
		for i := range src {
			got := dec.Source(i)
			if (got != nil) != dec.Known(i) || (got != nil && !bytes.Equal(got, src[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	// The generator must reach every branch the property is about.
	t.Logf("300 receptions: %d decoded, %d stalled peeling, %d finished by eliminating parity too", decoded, stalled, parityByGauss)
	if decoded == 0 || decoded == 300 || stalled == 0 || parityByGauss == 0 {
		t.Fatal("the generator left a branch of the property untested")
	}
}

func TestLeftDegreeParameter(t *testing.T) {
	c := mustNew(t, Params{K: 100, N: 250, Variant: Staircase, LeftDegree: 5, Seed: 23})
	for col, d := range columnDegrees(c) {
		if d < 5 || d > 6 {
			t.Fatalf("column %d degree %d, want 5", col, d)
		}
	}
}

func TestTinyCode(t *testing.T) {
	// k=1, n=2: a single source with one repair equation.
	c := mustNew(t, Params{K: 1, N: 2, Variant: Staircase})
	rx := c.NewReceiver()
	if !rx.Receive(1) {
		t.Fatal("could not rebuild single source from its parity")
	}
}

func TestBufferedSymbols(t *testing.T) {
	c := mustNew(t, Params{K: 20, N: 50, Variant: Staircase, Seed: 30})
	d := c.NewReceiver().(*Decoder)
	if d.BufferedSymbols() != 0 {
		t.Fatal("fresh decoder buffers symbols")
	}
	d.Receive(0)
	d.Receive(1)
	if got := d.BufferedSymbols(); got != 2 {
		t.Fatalf("BufferedSymbols = %d after 2 packets, want 2", got)
	}
	for id := 2; id < 20; id++ {
		d.Receive(id)
	}
	if !d.Done() || d.BufferedSymbols() != 0 {
		t.Fatalf("done decoder buffers %d symbols", d.BufferedSymbols())
	}
}
