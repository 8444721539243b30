// Package sched implements the packet transmission models of the
// reproduced paper (Section 4) and the reception model of Section 5:
//
//	Tx_model_1 — source packets sequentially, then parity sequentially
//	Tx_model_2 — source packets sequentially, then parity randomly
//	Tx_model_3 — parity packets sequentially, then source randomly
//	Tx_model_4 — everything in one fully random order
//	Tx_model_5 — interleaving (round-robin across blocks for small-block
//	             codes; proportional source/parity mixing for LDGM)
//	Tx_model_6 — a random subset of source packets plus all parity
//	             packets, in random order
//	Rx_model_1 — a fixed number of source packets first, then parity
//	             packets in random order
//
// plus the no-FEC ×R repetition scheme used by the paper's Figure 7
// motivation experiment. Schedulers are pure: they derive a transmission
// order from a layout and a per-trial random source, so every trial can
// re-randomise independently and reproducibly.
//
// Every model returns a streaming core.Schedule — an O(1)-memory rule
// evaluable at any position — rather than a materialised []int: shuffles
// are seeded Feistel permutations, Tx_model_5 is closed-form arithmetic,
// subsets and repetitions compose permutations. Every model captures
// its randomness up front — at most two 64-bit seeds drawn from rng
// (the Carousel draws its inner model's seeds once per round) — so a
// schedule can be re-evaluated, truncated, or resumed mid-order without
// replaying the generator.
package sched

import (
	"fmt"
	"math/rand"

	"fecperf/internal/core"
)

// TxModel1 sends all source packets sequentially, then all parity packets
// sequentially. The paper's verdict: "definitively bad".
type TxModel1 struct{}

// Name implements core.Scheduler.
func (TxModel1) Name() string { return "tx1" }

// Schedule implements core.Scheduler. Source ids are 0..K-1 and parity
// ids K..N-1, so the whole model is the identity order on [0,N).
func (TxModel1) Schedule(l core.Layout, _ *rand.Rand) core.Schedule {
	return core.SequenceSchedule(0, l.N)
}

// TxModel2 sends source packets sequentially, then parity packets in a
// random order. The paper's preferred scheme for LDGM codes at low loss.
type TxModel2 struct{}

// Name implements core.Scheduler.
func (TxModel2) Name() string { return "tx2" }

// Schedule implements core.Scheduler.
func (TxModel2) Schedule(l core.Layout, rng *rand.Rand) core.Schedule {
	return core.ConcatSchedules(
		core.SequenceSchedule(0, l.K),
		core.ShuffleSchedule(l.K, l.N-l.K, rng.Uint64()),
	)
}

// TxModel3 sends all parity packets sequentially, then the source packets
// in a random order (the dual of TxModel2; Section 4.5 keeps only the
// random-source variant).
type TxModel3 struct{}

// Name implements core.Scheduler.
func (TxModel3) Name() string { return "tx3" }

// Schedule implements core.Scheduler.
func (TxModel3) Schedule(l core.Layout, rng *rand.Rand) core.Schedule {
	return core.ConcatSchedules(
		core.SequenceSchedule(l.K, l.N-l.K),
		core.ShuffleSchedule(0, l.K, rng.Uint64()),
	)
}

// TxModel4 sends every packet in one fully random order — the paper's
// recommended scheme when the channel is unknown (with LDGM Triangle).
type TxModel4 struct{}

// Name implements core.Scheduler.
func (TxModel4) Name() string { return "tx4" }

// Schedule implements core.Scheduler.
func (TxModel4) Schedule(l core.Layout, rng *rand.Rand) core.Schedule {
	return core.ShuffleSchedule(0, l.N, rng.Uint64())
}

// TxModel5 is packet interleaving (Section 4.7). For multi-block codes
// (RSE) it maximises the distance between two packets of the same block by
// sending in-block symbol 0 of every block, then symbol 1 of every block,
// and so on. For single-block codes (LDGM-*) the paper's adaptation mixes
// one source packet with n/k - 1 parity packets; we realise that with an
// exact proportional merge of the sequential source and parity streams.
// Both shapes are deterministic and evaluate in closed form at any
// position.
type TxModel5 struct{}

// Name implements core.Scheduler.
func (TxModel5) Name() string { return "tx5" }

// Schedule implements core.Scheduler.
func (TxModel5) Schedule(l core.Layout, _ *rand.Rand) core.Schedule {
	if len(l.Blocks) > 1 {
		return core.InterleaveSchedule(l)
	}
	return core.ProportionalMergeSchedule(l.K, l.N-l.K)
}

// TxModel6 sends a random fraction of the source packets plus all parity
// packets, everything shuffled together (Section 4.8; the paper uses 20%
// and requires a high expansion ratio so that enough packets remain).
type TxModel6 struct {
	// SourceFraction is the fraction of source packets transmitted.
	// Zero means the paper's 0.20.
	SourceFraction float64
}

func (t TxModel6) fraction() float64 {
	if t.SourceFraction == 0 {
		return 0.20
	}
	return t.SourceFraction
}

// Name implements core.Scheduler. Non-default fractions render in the
// parameterized form ByName parses, so names round-trip.
func (t TxModel6) Name() string {
	if t.SourceFraction == 0 {
		return "tx6"
	}
	return fmt.Sprintf("tx6(frac=%g)", t.SourceFraction)
}

// Schedule implements core.Scheduler.
func (t TxModel6) Schedule(l core.Layout, rng *rand.Rand) core.Schedule {
	frac := t.fraction()
	if frac < 0 || frac > 1 {
		panic(fmt.Sprintf("sched: tx6 source fraction %g outside [0,1]", frac))
	}
	nSrc := int(frac*float64(l.K) + 0.5)
	return core.SubsetShuffleSchedule(l.K, nSrc, l.N-l.K, rng.Uint64(), rng.Uint64())
}

// RxModel1 is the reception model of Section 5.1: the receiver first
// obtains SourceCount randomly chosen source packets (guaranteed, in any
// order), then the parity packets in random order. Pair it with a no-loss
// channel: the model already *is* the reception behaviour.
type RxModel1 struct {
	// SourceCount is the number of source packets delivered up front.
	SourceCount int
}

// Name implements core.Scheduler.
func (r RxModel1) Name() string { return fmt.Sprintf("rx1(src=%d)", r.SourceCount) }

// Schedule implements core.Scheduler.
func (r RxModel1) Schedule(l core.Layout, rng *rand.Rand) core.Schedule {
	if r.SourceCount < 0 || r.SourceCount > l.K {
		panic(fmt.Sprintf("sched: rx1 source count %d outside [0,%d]", r.SourceCount, l.K))
	}
	return core.ConcatSchedules(
		core.TakeShuffleSchedule(0, l.K, r.SourceCount, rng.Uint64()),
		core.ShuffleSchedule(l.K, l.N-l.K, rng.Uint64()),
	)
}

// Repeat is the no-FEC scheme of Section 4.2 (Figure 7): every source
// packet is sent Times times and the whole sequence is shuffled. Pair it
// with a replication "code" whose receiver simply collects the k distinct
// source packets.
type Repeat struct {
	// Times is the repetition factor; zero means the paper's 2.
	Times int
}

// Name implements core.Scheduler, in the parameterized form ByName
// parses back.
func (r Repeat) Name() string { return fmt.Sprintf("repeat(x=%d)", r.times()) }

func (r Repeat) times() int {
	if r.Times == 0 {
		return 2
	}
	return r.Times
}

// Schedule implements core.Scheduler.
func (r Repeat) Schedule(l core.Layout, rng *rand.Rand) core.Schedule {
	t := r.times()
	if t < 1 {
		panic(fmt.Sprintf("sched: repetition factor %d < 1", t))
	}
	return core.RepeatSchedule(l.K, t, rng.Uint64())
}

// All returns the six transmission models in paper order.
func All() []core.Scheduler {
	return []core.Scheduler{TxModel1{}, TxModel2{}, TxModel3{}, TxModel4{}, TxModel5{}, TxModel6{}}
}
