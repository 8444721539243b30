package transport

import (
	"context"
	"testing"
	"time"

	"fecperf/internal/wire"
)

// --- shared pacer: weighted fairness between busy shares ---

// saturate drives shares that always have a batch of n waiting through
// the admission policy on a synthetic clock for dur: whichever share is
// due first asks, an admitted share asks again at once, a refused one
// when its wait is over. It returns the tokens each share was admitted.
// No goroutines, timers or sleeps: the result depends on the policy alone.
func saturate(t *testing.T, shares []*PacerShare, n int, dur time.Duration) []int {
	t.Helper()
	start := time.Now() // no earlier than the pacer's own construction time
	due := make([]time.Time, len(shares))
	for i := range due {
		due[i] = start
	}
	counts := make([]int, len(shares))
	for {
		next := 0
		for i := range due {
			if due[i].Before(due[next]) {
				next = i
			}
		}
		now := due[next]
		if now.Sub(start) >= dur {
			return counts
		}
		admitted, wait, err := shares[next].admit(now, float64(n))
		if err != nil {
			t.Fatal(err)
		}
		if admitted {
			counts[next] += n
			continue
		}
		if wait < time.Nanosecond {
			wait = time.Nanosecond // a sub-nanosecond shortfall truncates to 0
		}
		due[next] = now.Add(wait)
	}
}

func TestSharedPacerWeightedFairness(t *testing.T) {
	const (
		rate  = 50_000.0
		burst = 64
		batch = 16
		dur   = 2 * time.Second
	)
	sp := NewSharedPacer(rate, burst)
	heavy := sp.AddShare(3)
	light := sp.AddShare(1)
	counts := saturate(t, []*PacerShare{heavy, light}, batch, dur)

	// Both shares saturated: nothing spills, so each is paced by its own
	// slice exactly. The start-up pool (one burst) goes to whoever asks
	// first, and a share may be one batch short of its income when the
	// clock stops.
	for i, w := range []float64{3, 1} {
		slice := rate * dur.Seconds() * w / 4
		if got := float64(counts[i]); got < slice-batch || got > slice+burst {
			t.Errorf("weight-%v share admitted %d tokens over %v, want its slice %.0f (-%d, +%d)", w, counts[i], dur, slice, batch, burst)
		}
	}
}

// --- shared pacer: idle shares release their slice (work conservation) ---

func TestSharedPacerWorkConserving(t *testing.T) {
	const (
		rate  = 50_000.0
		burst = 64
		batch = 16
		dur   = 2 * time.Second
	)
	sp := NewSharedPacer(rate, burst)
	busy := sp.AddShare(1)
	for i := 0; i < 3; i++ {
		sp.AddShare(1) // registered but never taking — their slices idle
	}
	taken := saturate(t, []*PacerShare{busy}, batch, dur)[0]

	// The busy share's assured slice is rate/4; work conservation hands
	// it what the idle three spill. That is the full line rate less what
	// it takes the idle buckets to fill to the brim before they spill —
	// one burst each, once.
	line := rate * dur.Seconds()
	if got := float64(taken); got < line-3*burst-batch || got > line+burst {
		t.Errorf("sole busy share admitted %d tokens over %v, want the line rate's %.0f (-%d, +%d)", taken, dur, line, 3*burst+batch, burst)
	}
	if u := busy.Utilization(); u < 3.9 || u > 4.1 {
		t.Errorf("Utilization() = %.2f after borrowing three idle slices, want ~4", u)
	}
}

// --- shared pacer: over-burst debt bound and reset on resize ---

// TestSharedPacerDebtClearedOnResize pins the batch token-debt contract:
// a Take(n) with n above the share's burst runs the bucket negative by
// at most n - burst tokens (the convergence bound — the debt drains at
// the assured rate, so over-burst batches still average it), and a
// runtime share resize clears the debt instead of carrying it into the
// new regime.
func TestSharedPacerDebtClearedOnResize(t *testing.T) {
	const (
		rate  = 200_000.0
		burst = 32
	)
	ctx := context.Background()
	sp := NewSharedPacer(rate, burst)
	ps := sp.AddShare(1) // sole share: assured = full rate, burst = 32
	other := sp.AddShare(1)
	_ = other
	// Two equal shares, both full-burst (32) deep. The first over-burst
	// batch may ride the start-up pool (the borrow path creates no
	// debt); the second must go through the assured path — it waits for
	// a full bucket, debits the whole batch, and leaves debt ≤ 100 - 32.
	for i := 0; i < 2; i++ {
		if err := ps.Take(ctx, 100); err != nil {
			t.Fatal(err)
		}
	}
	debt := ps.Debt()
	if debt <= 0 {
		t.Fatalf("Take(100) with burst 32 left no debt — over-burst batches must run the bucket negative")
	}
	if debt > 100-32+1 {
		t.Errorf("debt after Take(100) = %.1f, above the n-burst bound %.0f", debt, 100.0-32)
	}

	// Shrinking the share's weight re-slices the pacer; debt must not
	// carry across the change (the cast would otherwise be throttled for
	// bursts sent under its old, larger entitlement).
	ps.SetWeight(0.5)
	if d := ps.Debt(); d != 0 {
		t.Errorf("Debt() = %.1f after SetWeight — resize must clear token debt", d)
	}

	// And the share is immediately admittable again within its new
	// slice's refill horizon (no stale debt throttling the next batch).
	tctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	start := time.Now()
	if err := ps.Take(tctx, 8); err != nil {
		t.Fatalf("Take after resize: %v", err)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Errorf("Take(8) after debt-clearing resize blocked %v — stale debt survived", d)
	}
}

// --- shared pacer: membership changes re-slice and clear debt too ---

func TestSharedPacerMembershipClearsDebt(t *testing.T) {
	ctx := context.Background()
	sp := NewSharedPacer(100_000, 32)
	ps := sp.AddShare(1)
	// Two over-burst takes: the first may be a debt-free borrow from the
	// full global bucket, the second runs the assured bucket negative.
	for i := 0; i < 2; i++ {
		if err := ps.Take(ctx, 200); err != nil { // 200 > burst 32 → debt
			t.Fatal(err)
		}
	}
	if ps.Debt() <= 0 {
		t.Fatal("expected debt after over-burst take")
	}
	newcomer := sp.AddShare(1) // membership change re-slices everyone
	if d := ps.Debt(); d != 0 {
		t.Errorf("Debt() = %.1f after AddShare — membership change must clear debt", d)
	}
	newcomer.Close()
	if d := ps.Debt(); d != 0 {
		t.Errorf("Debt() = %.1f after Close of a sibling — membership change must clear debt", d)
	}
}

// --- shared pacer: closed shares reject takes; nil admits everything ---

func TestSharedPacerCloseAndNil(t *testing.T) {
	ctx := context.Background()
	sp := NewSharedPacer(1000, 0)
	ps := sp.AddShare(1)
	ps.Close()
	if err := ps.Take(ctx, 1); err == nil {
		t.Error("Take on a closed share succeeded, want error")
	}
	ps.Close() // double close is a no-op

	if NewSharedPacer(0, 0) != nil {
		t.Error("NewSharedPacer(0, _) != nil — rate 0 must mean unpaced")
	}
	var nilSP *SharedPacer
	nilShare := nilSP.AddShare(5)
	if nilShare != nil {
		t.Fatal("nil pacer returned a non-nil share")
	}
	if err := nilShare.Take(ctx, 1_000_000); err != nil {
		t.Errorf("nil share Take: %v, want immediate admit", err)
	}
	if d := nilShare.Debt(); d != 0 {
		t.Errorf("nil share Debt() = %v", d)
	}
	nilShare.SetWeight(3)
	nilShare.Close()
	if w := nilShare.Weight(); w != 0 {
		t.Errorf("nil share Weight() = %v", w)
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if err := nilShare.Take(cctx, 1); err == nil {
		t.Error("nil share ignored a cancelled context")
	}
}

// --- shared pacer: a Take that waits reuses the share's timer ---

// TestPacerTakeWaitAllocFree drains a share and keeps taking: every
// Take has to sleep for its tokens, and none of them may allocate (the
// first wait builds the share's timer; AllocsPerRun's warm-up call pays
// for it).
func TestPacerTakeWaitAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const (
		rate  = 100_000.0
		batch = 8
		runs  = 100
	)
	ps := NewSharedPacer(rate, batch).AddShare(1)
	defer ps.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	take := func() {
		if err := ps.Take(ctx, batch); err != nil {
			t.Fatal(err)
		}
	}
	take() // the start-up burst: the only Take below that finds tokens waiting
	start := time.Now()
	allocs := testing.AllocsPerRun(runs, take)
	if allocs != 0 {
		t.Errorf("a Take that waits allocates %.1f times, want 0", allocs)
	}
	if d, ideal := time.Since(start), time.Duration(runs*batch/rate*float64(time.Second)); d < ideal/2 {
		t.Fatalf("%d takes of %d admitted in %v — they did not wait (ideal %v)", runs, batch, d, ideal)
	}

	// A wait cut short by its context stops the timer and leaves it for
	// the next Take, which sleeps out what is left of the 50 ms a token
	// takes at this rate.
	slow := NewSharedPacer(20, 1).AddShare(1)
	defer slow.Close()
	if err := slow.Take(ctx, 1); err != nil {
		t.Fatal(err)
	}
	short, stop := context.WithTimeout(ctx, time.Millisecond)
	defer stop()
	if err := slow.Take(short, 1); err != context.DeadlineExceeded {
		t.Fatalf("Take cut short by its context = %v, want DeadlineExceeded", err)
	}
	begin := time.Now()
	if err := slow.Take(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(begin); d < 20*time.Millisecond || d > 2*time.Second {
		t.Fatalf("the Take after a cancelled wait slept %v, want about 50 ms", d)
	}
}

// --- shared pacer: drives a real sender via SenderConfig.Pacer ---

func TestSenderExternalPacer(t *testing.T) {
	const rate = 20_000.0
	hub := NewLoopback()
	defer hub.Close()
	conn := hub.Sender()

	obj := encodeTestObject(t, testFile(t, 64<<10, 9), 101, wire.CodeRSE, 1.5, 1024)
	defer obj.Close()

	sp := NewSharedPacer(rate, 64)
	ps := sp.AddShare(1)
	s := NewSender(conn, SenderConfig{
		Pacer:     ps,
		Rate:      1e12, // ignored when Pacer is set
		BatchSize: 16,
		Rounds:    0,
	})
	if err := s.Add(obj); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := s.Run(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Run: %v, want deadline", err)
	}
	elapsed := time.Since(start).Seconds()
	st := s.Stats()
	got := float64(st.PacketsSent) / elapsed
	if got > rate*1.7 {
		t.Errorf("sender with external share ran at %.0f pkt/s, budget %.0f — SenderConfig.Pacer not honoured", got, rate)
	}
	if st.PacerWaitNS == 0 {
		t.Error("PacerWaitNS = 0 while blocked on an external pacer — timed wrapper not accounting")
	}
}
