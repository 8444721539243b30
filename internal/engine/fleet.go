package engine

// Fleet mode: one carousel, a million receivers. The scalar engine
// answers the paper's question — how inefficient is one reception? —
// by running independent trials. Fleet mode answers the operational
// question behind the paper's §6.2.2 recommendations for a receiver
// population: when one sender transmits one shared schedule to 10⁵–10⁶
// heterogeneous receivers, what does the completion CDF of the whole
// fleet look like?
//
// Three structural choices make that population size cheap:
//
//   - The transmission order is drawn once per point and fanned out:
//     every shard walks its own core.Schedule cursor copy over the same
//     lazy order, so the schedule costs O(1) memory however many
//     receivers watch it.
//
//   - Receiver state is struct-of-arrays. A block-MDS code
//     (core.BlockMDS) decodes a block at exactly k_b distinct symbols,
//     so a receiver is not a decoder object but a row across a few
//     parallel arrays: packed per-block countdown counters, a channel
//     state word, a reception count. Tens of bytes per receiver, laid
//     out so the inner loop streams through them.
//
//   - Channel sampling is batched: channel.Stepper advances a
//     receiver's Gilbert chain 64 transmissions per call on its raw
//     splitmix64 state word (an AVX-512 kernel where the CPU has one),
//     golden-equivalent to the scalar Gilbert.Lost() chain, and the
//     receptions come off the block countdowns by popcount.
//
// Receivers are sharded in fixed-size contiguous ranges, drained by the
// engine's one pool (drainShards). Every per-receiver result lands in
// that receiver's own array slot and the summary is computed
// single-threaded afterwards, so percentile curves are byte-identical
// under any worker count — the same determinism contract as the scalar
// engine.

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"fecperf/internal/channel"
	"fecperf/internal/core"
	"fecperf/internal/obs"
	"fecperf/internal/stats"
)

// Stream tags for core.DeriveSeed: the shared schedule draw and the
// per-receiver channel chains must live on unrelated rand streams.
const (
	fleetSchedStream uint64 = 0xf1ee7001
	fleetRxStream    uint64 = 0xf1ee7002
)

// fleetShardReceivers is the fixed shard width. It must not depend on
// the worker count (shard boundaries are part of the deterministic
// result layout); it only has to be small enough that a fleet fans out
// across every worker and large enough to amortise scheduling.
const fleetShardReceivers = 4096

// MixComponent is one receiver class of a fleet: a loss channel and its
// relative share of the population.
type MixComponent struct {
	Channel channel.Spec `json:"channel"`
	// Weight is the component's relative share; 0 means 1. Receiver
	// counts are apportioned by largest remainder, so weights need not
	// divide the population evenly.
	Weight float64 `json:"weight,omitempty"`
}

func (mc MixComponent) weight() float64 {
	if mc.Weight == 0 {
		return 1
	}
	return mc.Weight
}

// FleetSpec is the serializable Fleet plan axis: a receiver population
// and its channel mix. A fleet point measures the one-sender/N-receiver
// completion distribution instead of repeated independent trials.
type FleetSpec struct {
	// Receivers is the fleet population size.
	Receivers int `json:"receivers"`
	// Mix partitions the population into channel classes. Receivers are
	// assigned contiguously in mix order (component 0 gets the lowest
	// receiver indices), which fixes every receiver's channel seed.
	Mix []MixComponent `json:"mix"`
}

// Validate checks the spec without building anything expensive. Every
// mix channel must support batched stepping (gilbert, bernoulli,
// noloss); markov and trace channels cannot be fleet-stepped.
func (f FleetSpec) Validate() error {
	if f.Receivers <= 0 {
		return fmt.Errorf("engine: fleet needs a positive receiver count, got %d", f.Receivers)
	}
	if len(f.Mix) == 0 {
		return fmt.Errorf("engine: fleet needs at least one mix component")
	}
	for i, mc := range f.Mix {
		if !(mc.Weight >= 0) || math.IsInf(mc.Weight, 1) {
			return fmt.Errorf("engine: fleet mix component %d has weight %g, want finite and non-negative", i, mc.Weight)
		}
		if err := mc.Channel.Validate(); err != nil {
			return err
		}
		if _, ok := mc.Channel.Stepper(); !ok {
			return fmt.Errorf("engine: fleet mix channel %s cannot be batch-stepped (supported: gilbert, bernoulli, noloss)",
				mc.Channel.Key())
		}
	}
	_, err := f.apportion() // rejects weights whose sum overflows
	return err
}

// Key returns the fleet's stable identity for checkpointing; it stands
// in for the channel key in a fleet point's configuration key.
func (f FleetSpec) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet(n=%d", f.Receivers)
	for _, mc := range f.Mix {
		fmt.Fprintf(&b, ",%s:%g", mc.Channel.Key(), mc.weight())
	}
	b.WriteByte(')')
	return b.String()
}

// apportion splits the population across mix components by largest
// remainder: exact proportional floors first, then the leftover
// receivers to the largest fractional parts (ties to the earlier
// component). Deterministic, and off by at most one per component. Each
// share is a fraction of the total before it is scaled, so only a total
// that overflows is refused.
func (f FleetSpec) apportion() ([]int, error) {
	total := 0.0
	for _, mc := range f.Mix {
		total += mc.weight()
	}
	if math.IsInf(total, 0) || math.IsNaN(total) {
		return nil, fmt.Errorf("engine: fleet mix weights sum to %g", total)
	}
	counts := make([]int, len(f.Mix))
	order := make([]int, len(f.Mix))
	fracs := make([]float64, len(f.Mix))
	assigned := 0
	for i, mc := range f.Mix {
		exact := float64(f.Receivers) * (mc.weight() / total)
		counts[i] = int(exact)
		fracs[i] = exact - float64(counts[i])
		order[i] = i
		assigned += counts[i]
	}
	sort.SliceStable(order, func(a, b int) bool { return fracs[order[a]] > fracs[order[b]] })
	for j := 0; assigned < f.Receivers; j++ {
		counts[order[j%len(order)]]++
		assigned++
	}
	return counts, nil
}

// FleetPercentiles are nearest-rank percentile values over a receiver
// population, with receivers that never completed ranked after every
// completion. A value of -1 means the rank falls on an incomplete
// receiver — the fleet never reached that completion fraction.
type FleetPercentiles struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
}

// percentilesOf computes nearest-rank percentiles out of a population of
// n from the completed receivers' keys, given as sorted runs: it merges
// the runs only as deep as the deepest rank it picks, and val turns just
// the picked keys into values, so it must be monotone.
func percentilesOf(runs [][]uint32, n int, val func(uint32) float64) FleetPercentiles {
	heads := make([]int, len(runs))
	merged, last := 0, uint32(0)
	pick := func(p float64) float64 { // in increasing p: the merge only moves forward
		for rank := max(int(math.Ceil(p*float64(n))), 1); merged < rank; merged++ {
			best := -1
			for j, run := range runs {
				if heads[j] < len(run) && (best < 0 || run[heads[j]] < runs[best][heads[best]]) {
					best = j
				}
			}
			if best < 0 {
				return -1 // the rank falls past the completed receivers
			}
			last = runs[best][heads[best]]
			heads[best]++
		}
		return val(last)
	}
	return FleetPercentiles{P50: pick(0.50), P90: pick(0.90), P99: pick(0.99), P999: pick(0.999)}
}

// FleetGroupSummary is the completion distribution of one mix component.
type FleetGroupSummary struct {
	// Channel is the component's channel key.
	Channel string `json:"channel"`
	// Receivers and Completed count the component's population and how
	// many of them finished decoding within the schedule.
	Receivers int `json:"receivers"`
	Completed int `json:"completed"`
	// Completion is the distribution of symbols sent (schedule
	// positions, 1-based) at the moment a receiver completed.
	Completion FleetPercentiles `json:"completion_symbols"`
	// Ineff is the distribution of n_necessary/k over the population —
	// the paper's metric, per receiver instead of per trial.
	Ineff FleetPercentiles `json:"ineff"`
	// IneffStats aggregates inefficiency over completed receivers, in
	// receiver-index order.
	IneffStats stats.Accumulator `json:"ineff_stats"`
}

// FleetSummary is a fleet point's result: overall and per-component
// completion-time and inefficiency distributions, plus the run's scale
// counters. It is byte-identical under any worker count.
type FleetSummary struct {
	Receivers int `json:"receivers"`
	Completed int `json:"completed"`
	// NSent is the number of schedule positions walked.
	NSent int `json:"nsent"`
	// Events counts receiver-symbol channel steps actually performed —
	// completed receivers stop consuming the schedule, so this is the
	// work metric the events/s benchmark divides by.
	Events int64 `json:"events"`
	// BytesPerReceiver is the steady-state fleet state footprint per
	// receiver: all receiver-proportional arrays divided by the
	// population (the shared schedule and id→block table are excluded;
	// they are per-fleet, not per-receiver).
	BytesPerReceiver float64             `json:"bytes_per_receiver"`
	Completion       FleetPercentiles    `json:"completion_symbols"`
	Ineff            FleetPercentiles    `json:"ineff"`
	IneffStats       stats.Accumulator   `json:"ineff_stats"`
	Groups           []FleetGroupSummary `json:"groups"`
}

// fleetMetrics is the fleet's instrument set; the zero value is inert.
type fleetMetrics struct {
	receivers  *obs.Counter
	completed  *obs.Counter
	events     *obs.Counter
	shards     *obs.Counter
	live       *obs.Gauge
	completion *obs.Histogram
}

func newFleetMetrics(r *obs.Registry) fleetMetrics {
	if r == nil {
		return fleetMetrics{}
	}
	return fleetMetrics{
		receivers:  r.Counter("engine_fleet_receivers_total", "Fleet receivers simulated.", nil),
		completed:  r.Counter("engine_fleet_receivers_completed_total", "Fleet receivers that completed decoding.", nil),
		events:     r.Counter("engine_fleet_events_total", "Receiver-symbol channel events stepped.", nil),
		shards:     r.Counter("engine_fleet_shards_total", "Fleet receiver shards completed.", nil),
		live:       r.Gauge("engine_fleet_live_shards", "Fleet shards currently executing.", nil),
		completion: r.Histogram("engine_fleet_completion_symbols", "Symbols sent until receiver completion.", obs.ExpBuckets(64, 2, 18), 0, nil),
	}
}

// runFleet runs a spec that PointSpec.validate has accepted, on at most
// workers (> 0) goroutines.
func runFleet(ctx context.Context, spec PointSpec, workers int, m fleetMetrics) (*FleetSummary, error) {
	// The shared transmission order, drawn exactly once per point.
	layout := spec.Code.Layout()
	rng := rand.New(&core.SplitMixSource{})
	rng.Seed(core.DeriveSeed(spec.Seed, fleetSchedStream))
	schedule := spec.Scheduler.Schedule(layout, rng)
	nsent := spec.NSent
	if nsent <= 0 || nsent > schedule.Len() {
		nsent = schedule.Len()
	}

	st, err := newFleetState(layout, spec.Fleet, schedule, nsent, spec.Seed)
	if err != nil {
		return nil, err
	}
	m.receivers.Add(uint64(spec.Fleet.Receivers))

	tasks := st.shardTasks()
	var events atomic.Int64
	drainShards(ctx, workers, len(tasks), func(_ *worker, i int) {
		sh := tasks[i]
		m.live.Add(1)
		ev, done := st.runShard(ctx, sh)
		m.live.Add(-1)
		events.Add(ev)
		m.events.Add(uint64(ev))
		if !done {
			return // cancelled mid-shard
		}
		m.shards.Inc()
		for r := sh.lo; r < sh.hi; r++ {
			if at := st.completedAt[r]; at > 0 {
				m.completed.Inc()
				m.completion.Observe(int64(at))
			}
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return st.summarize(nsent, events.Load()), nil
}

// fleetGroup is one mix component's contiguous receiver range and its
// immutable channel stepper.
type fleetGroup struct {
	key     string
	stepper channel.Stepper
	lo, hi  int
}

// fleetState is the struct-of-arrays receiver population. Every array
// is indexed by receiver; shards own disjoint index ranges, so workers
// never touch the same element.
type fleetState struct {
	layout   core.Layout
	schedule core.Schedule
	nsent    int
	nblocks  int
	groups   []fleetGroup

	blockIdx []int32 // packet id → block: the code's table (Layout.BlockIndex)

	// Per-receiver state. The steady-state budget: 8 (chanState) +
	// 1 (lost) + 4 (received) + 4 (completedAt) + 2 (blocksLeft) +
	// 4 (active slot) + 2·nblocks (remaining) bytes, plus N/8 bytes of
	// dedup bitmap only when the schedule may repeat an id.
	chanState   []uint64 // raw splitmix64 channel stream state
	lost        []bool   // Gilbert chain state (in the loss state?)
	received    []uint32 // receptions incl. duplicates; frozen at completion
	completedAt []int32  // 1-based schedule position of completion; 0 = never
	blocksLeft  []uint16 // blocks not yet at their threshold
	remaining   []uint16 // [r*nblocks+b]: distinct symbols block b still needs
	active      []int32  // per-shard swap-remove scratch, one slot per receiver
	seen        []uint64 // dedup bitmap arena, nil for duplicate-free schedules
	seenWords   int      // bitmap words per receiver
}

func newFleetState(layout core.Layout, f FleetSpec, schedule core.Schedule, nsent int, seed int64) (*fleetState, error) {
	nb := len(layout.Blocks)
	if nb > math.MaxUint16 {
		return nil, fmt.Errorf("engine: fleet cannot index %d blocks", nb)
	}
	for _, b := range layout.Blocks {
		if len(b.Source) > math.MaxUint16 {
			return nil, fmt.Errorf("engine: fleet block threshold %d exceeds %d", len(b.Source), math.MaxUint16)
		}
	}
	if nsent > math.MaxInt32 {
		return nil, fmt.Errorf("engine: fleet schedule length %d exceeds %d", nsent, math.MaxInt32)
	}

	r := f.Receivers
	st := &fleetState{
		layout:      layout,
		schedule:    schedule,
		nsent:       nsent,
		nblocks:     nb,
		blockIdx:    layout.BlockIndex(),
		chanState:   make([]uint64, r),
		lost:        make([]bool, r),
		received:    make([]uint32, r),
		completedAt: make([]int32, r),
		blocksLeft:  make([]uint16, r),
		remaining:   make([]uint16, r*nb),
		active:      make([]int32, r),
	}
	// Duplicate-free schedules (the paper's permutation models) need no
	// dedup state at all; carousels and repeat schemes pay N bits per
	// receiver for it.
	if !schedule.DistinctIDs() {
		st.seenWords = (layout.N + 63) / 64
		st.seen = make([]uint64, r*st.seenWords)
	}

	counts, err := f.apportion()
	if err != nil {
		return nil, err
	}
	lo := 0
	for i, mc := range f.Mix {
		stepper, _ := mc.Channel.Stepper() // FleetSpec.Validate has checked ok
		st.groups = append(st.groups, fleetGroup{
			key: mc.Channel.Key(), stepper: stepper, lo: lo, hi: lo + counts[i],
		})
		lo += counts[i]
	}

	for r := range st.chanState {
		// Receiver r's channel chain: its own derived splitmix64 stream,
		// independent of its group — adding a mix component never
		// reseeds the receivers after it.
		st.chanState[r] = uint64(core.DeriveSeed(seed, fleetRxStream, uint64(r)))
		st.blocksLeft[r] = uint16(st.nblocks)
		base := r * st.nblocks
		for bi, b := range layout.Blocks {
			st.remaining[base+bi] = uint16(len(b.Source))
		}
	}
	return st, nil
}

// fleetShardRange is one work unit: a contiguous receiver range inside
// one mix group.
type fleetShardRange struct {
	group  int
	lo, hi int
}

// shardTasks cuts every group into fixed-width receiver ranges. The
// partition is independent of the worker count — it is part of the
// deterministic result layout.
func (st *fleetState) shardTasks() []fleetShardRange {
	var out []fleetShardRange
	for gi := range st.groups {
		g := &st.groups[gi]
		for lo := g.lo; lo < g.hi; lo += fleetShardReceivers {
			hi := lo + fleetShardReceivers
			if hi > g.hi {
				hi = g.hi
			}
			out = append(out, fleetShardRange{group: gi, lo: lo, hi: hi})
		}
	}
	return out
}

// runShard simulates receivers [sh.lo, sh.hi) over the whole shared
// schedule, 64 symbols per word, and returns how many receiver-symbol
// events it stepped (false when cancelled mid-shard).
//
// The loop is receiver-major within each word. The word's ids, distinct
// blocks and per-block position masks are built once (a shard-local
// slot table finds the blocks without a map); then each active receiver
// steps its chain 64 transmissions in one StepMask call and counts each
// block down by the popcount of its fresh receptions there. Only a
// schedule that may repeat ids pays a per-bit dedup pass. Completed
// receivers are swap-removed from the shard's active window.
func (st *fleetState) runShard(ctx context.Context, sh fleetShardRange) (int64, bool) {
	arena := st.active[sh.lo:sh.hi]
	for i := range arena {
		arena[i] = int32(sh.lo + i)
	}
	n := len(arena)
	stepper := st.groups[sh.group].stepper

	var (
		ids    [64]int32
		blocks [64]int32  // the word's distinct blocks, in first-seen order
		masks  [64]uint64 // masks[i]: the word positions of blocks[i]
		events int64
	)
	slot := make([]int8, st.nblocks) // block → 1 + its index in blocks; 0 = not in this word
	cur := st.schedule.Cursor()
	for pos := 0; pos < st.nsent && n > 0; {
		select {
		case <-ctx.Done():
			return events, false
		default:
		}
		m := min(st.nsent-pos, 64)
		touched := 0
		for j := 0; j < m; j++ {
			id, _ := cur.Next()
			ids[j] = int32(id)
			b := st.blockIdx[id]
			if slot[b] == 0 {
				blocks[touched], masks[touched] = b, 0
				touched++
				slot[b] = int8(touched)
			}
			masks[slot[b]-1] |= 1 << uint(j)
		}
		for _, b := range blocks[:touched] {
			slot[b] = 0
		}
		full := ^uint64(0) >> uint(64-m)
		events += int64(n) * int64(m)
		for i := 0; i < n; {
			r := arena[i]
			rbits := ^stepper.StepMask(&st.chanState[r], &st.lost[r], m) & full
			fresh := rbits
			if st.seen != nil {
				seen := st.seen[int(r)*st.seenWords:][:st.seenWords]
				for b := rbits; b != 0; b &= b - 1 {
					j := bits.TrailingZeros64(b)
					w, bit := &seen[ids[j]>>6], uint64(1)<<(ids[j]&63)
					if *w&bit != 0 {
						fresh &^= 1 << uint(j)
					}
					*w |= bit
				}
			}
			// Receptions count duplicates too, like RunTrial's NReceived;
			// at completion, only those up to the completing position.
			if j := st.countDown(r, fresh, blocks[:touched], masks[:touched]); j >= 0 {
				st.received[r] += uint32(bits.OnesCount64(rbits & (2<<uint(j) - 1)))
				st.completedAt[r] = int32(pos + j + 1)
				n--
				arena[i] = arena[n]
			} else {
				st.received[r] += uint32(bits.OnesCount64(rbits))
				i++
			}
		}
		pos += m
	}
	return events, true
}

// countDown takes receiver r's fresh receptions in a word off the
// countdowns of its blocks (masks[i] holds blocks[i]'s positions) and
// returns the position at which r completes, or -1: the latest of the
// completing blocks' remaining-th fresh positions, once none is left.
func (st *fleetState) countDown(r int32, fresh uint64, blocks []int32, masks []uint64) int {
	rem := st.remaining[int(r)*st.nblocks:][:st.nblocks]
	last := -1
	for i, b := range blocks {
		left := int(rem[b])
		if left == 0 {
			continue // block already at its threshold
		}
		f := fresh & masks[i]
		if c := bits.OnesCount64(f); c < left {
			rem[b] = uint16(left - c)
			continue
		}
		rem[b] = 0
		for ; left > 1; left-- {
			f &= f - 1
		}
		last = max(last, bits.TrailingZeros64(f))
		st.blocksLeft[r]--
	}
	if st.blocksLeft[r] != 0 {
		return -1
	}
	return last
}

// summarize builds the deterministic fleet summary: per-group and
// overall nearest-rank percentiles plus inefficiency accumulators, all
// computed single-threaded from the per-receiver arrays in receiver
// order — no trace of which worker ran which shard survives. Each group's
// integer keys are sorted once; the fleet-wide percentiles merge them.
func (st *fleetState) summarize(nsent int, events int64) *FleetSummary {
	k := float64(st.layout.K)
	r := len(st.chanState)
	sum := &FleetSummary{
		Receivers:        r,
		NSent:            nsent,
		Events:           events,
		BytesPerReceiver: st.bytesPerReceiver(),
	}
	symbols := func(at uint32) float64 { return float64(at) }
	ineff := func(received uint32) float64 { return float64(received) / k }
	comps := make([][]uint32, len(st.groups))
	recvs := make([][]uint32, len(st.groups))
	for gi := range st.groups {
		g := &st.groups[gi]
		gs := FleetGroupSummary{Channel: g.key, Receivers: g.hi - g.lo}
		comp := make([]uint32, 0, gs.Receivers)
		recv := make([]uint32, 0, gs.Receivers)
		for r := g.lo; r < g.hi; r++ {
			if at := st.completedAt[r]; at > 0 {
				comp = append(comp, uint32(at))
				recv = append(recv, st.received[r])
				gs.IneffStats.Add(ineff(st.received[r]))
			}
		}
		slices.Sort(comp)
		slices.Sort(recv)
		comps[gi], recvs[gi] = comp, recv
		gs.Completed = len(comp)
		gs.Completion = percentilesOf(comps[gi:gi+1], gs.Receivers, symbols)
		gs.Ineff = percentilesOf(recvs[gi:gi+1], gs.Receivers, ineff)
		sum.Completed += gs.Completed
		sum.IneffStats.Merge(gs.IneffStats)
		sum.Groups = append(sum.Groups, gs)
	}
	sum.Completion = percentilesOf(comps, r, symbols)
	sum.Ineff = percentilesOf(recvs, r, ineff)
	return sum
}

// bytesPerReceiver reports the steady-state receiver-proportional
// footprint: every array indexed by receiver, divided by the
// population. Shared per-fleet tables (schedule, blockIdx) are excluded.
func (st *fleetState) bytesPerReceiver() float64 {
	r := len(st.chanState)
	if r == 0 {
		return 0
	}
	total := len(st.chanState)*8 + len(st.lost) + len(st.received)*4 +
		len(st.completedAt)*4 + len(st.blocksLeft)*2 + len(st.remaining)*2 +
		len(st.active)*4 + len(st.seen)*8
	return float64(total) / float64(r)
}

// fleetAggregate wraps a fleet summary in the scalar Aggregate shape:
// receivers count as trials, incomplete receivers as failures, and the
// inefficiency accumulator carries over, so grids, checkpoints and the
// appendix-table String() render fleet points unchanged.
func fleetAggregate(s *FleetSummary) Aggregate {
	return Aggregate{
		Trials:   s.Receivers,
		Failures: s.Receivers - s.Completed,
		Ineff:    s.IneffStats,
		Fleet:    s,
	}
}
