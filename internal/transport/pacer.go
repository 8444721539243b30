package transport

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// defaultBurst is the bucket depth in packets of a sender's or caster's
// own pacer when its Burst is unset.
const defaultBurst = 32

// ValidatePacing rejects a rate or burst no pacer can run with: the
// rate must be finite and non-negative (0 = unpaced), the burst
// non-negative (0 = the default depth).
func ValidatePacing(rate float64, burst int) error {
	if !(rate >= 0) || math.IsInf(rate, 1) { // also rejects NaN
		return fmt.Errorf("transport: rate must be finite and non-negative, got %g", rate)
	}
	if burst < 0 {
		return fmt.Errorf("transport: burst must not be negative, got %d", burst)
	}
	return nil
}

// ownPacer resolves the admission source of a sender or caster run: the
// external share when one is configured; otherwise, for rate > 0, the
// sole share of a fresh SharedPacer (burst < 1 selects defaultBurst);
// otherwise nil — unpaced. release closes the share ownPacer created.
func ownPacer(external *PacerShare, rate float64, burst int) (p *PacerShare, release func()) {
	if external != nil || rate <= 0 {
		return external, func() {}
	}
	if burst < 1 {
		burst = defaultBurst
	}
	share := NewSharedPacer(rate, burst).AddShare(1)
	return share, share.Close
}

// SharedPacer is a hierarchical token-bucket pacer: the line-rate
// budget is sliced into weighted per-cast assured buckets, and unused
// capacity pools for whoever needs it. The hierarchy is HTB-shaped with
// spill-fed borrowing:
//
//   - each share owns an assured bucket refilling at rate·weight/Σweights
//     (its guaranteed slice of the line rate) — admission debits only
//     this bucket, so a saturated share is paced by its own slice exactly
//     and contended fleets split the rate in precise weight proportion.
//     Every bucket is the full global burst deep: burst absorbs timer
//     jitter rather than slicing by weight, so a busy share's wake-up
//     overshoot lands in its own bucket instead of spilling to rivals
//     (fairness lives in the rates, not the depths);
//   - an idle share's bucket caps at that burst; income past the cap
//     spills into the shared surplus pool, which is the only way the
//     pool gains tokens — it holds precisely the capacity nobody's
//     assured admission claimed;
//   - a share whose assured bucket cannot cover a batch borrows from the
//     pool, which is what makes the pacer work-conserving: one active
//     cast among many registered ones runs at the full line rate, and
//     the moment the others wake the spill dries up and everyone
//     converges back to their weighted slices.
//
// Shares debit whole batches and carry debt: Take(n) with n above the
// share's burst cannot wait for the bucket to hold n at once — it never
// will — so it waits only until the bucket is full, debits the whole
// batch and runs the bucket negative; the debt throttles later takes,
// so over-burst batches still average the assured rate. The debt is
// bounded by maxSendBatch - 1 tokens and drains within
// Debt()/assured-rate seconds — and it never survives a reconfiguration:
// AddShare, Close and SetWeight all clamp every share's debt to zero, so
// a cast resized down is not additionally throttled for bursts it sent
// under its old, larger share.
//
// All methods are safe for concurrent use.
type SharedPacer struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	pool   float64 // spill surplus: capacity idle shares released
	last   time.Time
	shares []*PacerShare
	sumW   float64
}

// DefaultSharedBurst is the global bucket depth when NewSharedPacer is
// given burst <= 0: deep enough that a full maxSendBatch flush from a
// few casts clears without synthetic stalls.
const DefaultSharedBurst = 4 * maxSendBatch

// NewSharedPacer returns a hierarchical pacer admitting rate packets per
// second in aggregate. burst <= 0 selects DefaultSharedBurst. A rate
// <= 0 returns nil: the nil *SharedPacer is valid and unpaced (its
// shares admit everything). The pool starts full —
// the start-up burst — so a fresh fleet's first batches clear without
// synthetic stalls.
func NewSharedPacer(rate float64, burst int) *SharedPacer {
	if rate <= 0 {
		return nil
	}
	b := float64(burst)
	if burst <= 0 {
		b = DefaultSharedBurst
	}
	return &SharedPacer{rate: rate, burst: b, pool: b, last: time.Now()}
}

// Rate returns the aggregate line-rate budget in packets per second
// (0 for the nil, unpaced pacer).
func (sp *SharedPacer) Rate() float64 {
	if sp == nil {
		return 0
	}
	return sp.rate
}

// AddShare registers a new share with the given weight (values <= 0 are
// treated as 1) and returns it. Every share's assured rate is
// rate·weight/Σweights; adding a share re-slices all existing shares and
// clamps their debt to zero. A nil SharedPacer returns a nil share,
// which admits everything — the unpaced configuration needs no special
// casing downstream.
func (sp *SharedPacer) AddShare(weight float64) *PacerShare {
	if sp == nil {
		return nil
	}
	if weight <= 0 {
		weight = 1
	}
	ps := &PacerShare{sp: sp, weight: weight}
	sp.mu.Lock()
	now := time.Now()
	sp.refillAllLocked(now)
	sp.shares = append(sp.shares, ps)
	sp.resliceLocked()
	sp.mu.Unlock()
	return ps
}

// refillAllLocked accrues every share's assured income up to now and
// spills each bucket's overflow into the surplus pool. One pass settles
// the whole hierarchy, so idle shares release their capacity without
// ever calling Take — the pool's balance is exactly the income no
// assured bucket had room for. Buckets are full-burst deep, so a busy
// share never sits at its cap between admissions and only genuinely
// idle capacity ever spills.
func (sp *SharedPacer) refillAllLocked(now time.Time) {
	dt := now.Sub(sp.last).Seconds()
	sp.last = now
	if dt <= 0 {
		return
	}
	for _, ps := range sp.shares {
		income := dt * ps.rate
		ps.tokens += income
		ps.entitled += income
		if ps.tokens > ps.burst {
			sp.pool += ps.tokens - ps.burst
			ps.tokens = ps.burst
		}
	}
	if sp.pool > sp.burst {
		sp.pool = sp.burst
	}
}

// resliceLocked recomputes every share's assured rate and burst after a
// membership or weight change (the caller settles accrual with
// refillAllLocked first). Token debt is cleared: debt is an artifact of
// batches admitted under the old slicing, and carrying it across a
// resize would throttle a cast for history that no longer describes its
// entitlement. The pool restarts the new regime non-negative for the
// same reason.
func (sp *SharedPacer) resliceLocked() {
	sp.sumW = 0
	for _, ps := range sp.shares {
		sp.sumW += ps.weight
	}
	for _, ps := range sp.shares {
		ps.rate = sp.rate * ps.weight / sp.sumW
		ps.burst = sp.burst
		if ps.tokens < 0 {
			ps.tokens = 0
		}
		if ps.tokens > ps.burst {
			ps.tokens = ps.burst
		}
	}
	if sp.pool < 0 {
		sp.pool = 0
	}
}

// PacerShare is one cast's slice of a SharedPacer: the admission source
// that holds a sender to its session bitrate (ALC sessions are announced
// with a fixed rate) instead of letting it free-run and flood kernel
// buffers. A sender or caster given Rate/Burst draws from the sole share
// of its own SharedPacer; hand a share to SenderConfig.Pacer or
// CasterConfig.Pacer instead, as the daemon does for every cast, and
// many carousels divide one line-rate budget. The nil share admits
// everything (the unpaced configuration).
type PacerShare struct {
	sp     *SharedPacer
	weight float64

	// timer is the stopped timer the last Take that had to wait left
	// for the next one, so a paced sender does not build one per wait.
	// A Take holds it exclusively while it waits; one racing it on the
	// same share finds nil and makes its own.
	timer atomic.Pointer[time.Timer]

	// All fields below are guarded by sp.mu.
	rate     float64 // assured slice: sp.rate · weight / Σweights
	burst    float64
	tokens   float64
	taken    float64 // tokens consumed over the share's lifetime
	entitled float64 // assured tokens accrued over the share's lifetime
	closed   bool
}

// Take admits n packet transmissions in one debit, n == 0 being a
// cancellation check: it blocks until the share's assured bucket (or the
// surplus pool's work-conserving spill) covers the batch, or ctx is
// done, then debits the bucket it admitted from. See SharedPacer for the
// admission and debt semantics.
func (ps *PacerShare) Take(ctx context.Context, n int) error {
	// Honour cancellation on every admission, including the token-rich
	// fast path: the sender's round loop relies on Take to notice a
	// cancelled context, and a sender running below its rate would
	// otherwise never block and never see it.
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
	}
	if ps == nil || n <= 0 {
		return nil
	}
	for {
		admitted, wait, err := ps.admit(time.Now(), float64(n))
		if admitted || err != nil {
			return err
		}
		t := ps.timer.Swap(nil)
		if t == nil {
			t = time.NewTimer(wait)
		} else {
			t.Reset(wait)
		}
		select {
		case <-ctx.Done():
			t.Stop()
			ps.timer.Store(t)
			return ctx.Err()
		case <-t.C:
			ps.timer.Store(t)
		}
	}
}

// admit is Take's decision at one instant: it settles the hierarchy's
// accrual up to now and either debits need tokens (admitted) or says how
// long to wait before asking again. Time enters only through now, so the
// policy can be driven by a synthetic clock.
func (ps *PacerShare) admit(now time.Time, need float64) (admitted bool, wait time.Duration, err error) {
	sp := ps.sp
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if ps.closed {
		return false, 0, fmt.Errorf("transport: pacer share closed")
	}
	sp.refillAllLocked(now)
	// Assured admission: the share's own bucket covers the batch
	// (over-burst batches wait for a full bucket and run it into
	// debt). Only this bucket is debited,
	// so under contention every share is paced by precisely its
	// weighted slice — fairness needs no coordination.
	target := need
	if target > ps.burst {
		target = ps.burst
	}
	if ps.tokens >= target {
		ps.tokens -= need
		ps.taken += need
		return true, 0, nil
	}
	// Work-conserving borrow: the pool holds only what idle shares
	// spilled, so borrowing takes capacity that was nobody's
	// entitlement — it costs no future assured admission and cannot
	// starve a contending share.
	ptarget := need
	if ptarget > sp.burst {
		ptarget = sp.burst
	}
	if sp.pool >= ptarget {
		sp.pool -= need
		ps.taken += need
		return true, 0, nil
	}
	// Wait for the earlier of: own assured refill covering target,
	// or spill refilling the pool to ptarget. Spill accrues at the
	// capped (idle) shares' combined rate; the estimate is
	// optimistic — a competitor may claim the spill first — so
	// admission re-checks on wake, and the assured refill bounds the
	// wait either way.
	dChild := math.Inf(1)
	if ps.rate > 0 {
		dChild = (target - ps.tokens) / ps.rate
	}
	spillRate := 0.0
	for _, s := range sp.shares {
		if s.tokens >= s.burst {
			spillRate += s.rate
		}
	}
	dPool := math.Inf(1)
	if spillRate > 0 {
		dPool = (ptarget - sp.pool) / spillRate
	}
	d := dChild
	if dPool < d {
		d = dPool
	}
	return false, time.Duration(d * float64(time.Second)), nil
}

// Weight returns the share's current weight.
func (ps *PacerShare) Weight() float64 {
	if ps == nil {
		return 0
	}
	ps.sp.mu.Lock()
	defer ps.sp.mu.Unlock()
	return ps.weight
}

// SetWeight resizes the share (values <= 0 are treated as 1),
// re-slicing every share of the pacer. Token debt does not carry across
// the change: all shares restart the new regime debt-free.
func (ps *PacerShare) SetWeight(weight float64) {
	if ps == nil {
		return
	}
	if weight <= 0 {
		weight = 1
	}
	sp := ps.sp
	sp.mu.Lock()
	sp.refillAllLocked(time.Now())
	ps.weight = weight
	sp.resliceLocked()
	sp.mu.Unlock()
}

// Debt returns the share's current token debt — how many packets of a
// past over-burst batch are still unpaid. It is bounded by the batch
// size of the largest single Take minus the share's burst, and drains at
// the assured rate; SetWeight, AddShare and Close reset it to zero.
func (ps *PacerShare) Debt() float64 {
	if ps == nil {
		return 0
	}
	sp := ps.sp
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.refillAllLocked(time.Now())
	if ps.tokens >= 0 {
		return 0
	}
	return -ps.tokens
}

// Utilization reports the share's lifetime consumption relative to its
// assured entitlement: 1.0 means the cast consumed exactly its weighted
// slice, below 1 it left capacity for others, above 1 it borrowed the
// surplus idle shares released. Returns 0 before any entitlement
// accrues.
func (ps *PacerShare) Utilization() float64 {
	if ps == nil {
		return 0
	}
	sp := ps.sp
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.refillAllLocked(time.Now())
	if ps.entitled <= 0 {
		return 0
	}
	return ps.taken / ps.entitled
}

// Close removes the share from its pacer, re-slicing the remaining
// shares (their assured rates grow to cover the freed weight). Pending
// and future Takes on the closed share fail.
func (ps *PacerShare) Close() {
	if ps == nil {
		return
	}
	sp := ps.sp
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if ps.closed {
		return
	}
	ps.closed = true
	for i, s := range sp.shares {
		if s == ps {
			sp.shares = append(sp.shares[:i], sp.shares[i+1:]...)
			break
		}
	}
	sp.refillAllLocked(time.Now())
	if len(sp.shares) > 0 {
		sp.resliceLocked()
	} else {
		sp.sumW = 0
	}
}
