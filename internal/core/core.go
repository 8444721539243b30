// Package core defines the abstractions the whole study is phrased in:
// packet-level FEC codes, their transmission layouts, incremental receivers,
// loss channels, packet schedulers, and the per-trial simulation engine that
// ties them together.
//
// The reproduced paper measures one quantity, the inefficiency ratio
// inef = n_necessary_for_decoding / k, as a function of the transmission
// schedule and of the channel loss process. This package implements exactly
// that measurement loop (RunTrial); everything else in the repository is
// either a concrete implementation of one of these interfaces or machinery
// that sweeps RunTrial over parameter grids.
package core

import (
	"fmt"
	"math/bits"
	"math/rand"

	"fecperf/internal/symbol"
)

// Layout describes the packet-level structure of an FEC-encoded object:
// k source packets, n total packets, and the block decomposition.
//
// Packet IDs are global and dense: IDs 0..K-1 are source packets in object
// order, IDs K..N-1 are parity packets. Large-block codes (LDGM-*) have a
// single block spanning the whole object; small-block codes (Reed-Solomon)
// are segmented into several blocks, and the per-block ID ranges drive the
// paper's Tx_model_5 interleaver.
type Layout struct {
	K       int     // number of source packets
	N       int     // total number of packets (source + parity)
	Blocks  []Block // at least one; blocks partition [0,N)
	blockOf []int32 // id→block table, built once per code by IndexBlocks

	// decoders holds the code's closed payload BlockDecoders, for its next
	// NewBlockDecoder to reset; made by IndexBlocks, so it lives and dies
	// with the code.
	decoders *symbol.FreeList[BlockDecoder]
}

// IndexBlocks builds the id→block table BlockIndex returns, and the free
// list the layout's payload decoders go back to on Close. A block family
// calls it once per code, so the code's receivers and fleets share the
// table and each closed decoder becomes the code's next one.
func (l *Layout) IndexBlocks() {
	l.blockOf = l.BlockIndex()
	l.decoders = new(symbol.FreeList[BlockDecoder])
}

// BlockIndex returns the block of every packet ID, by ID: IndexBlocks'
// shared table (do not modify it), or a new one for a layout without it.
func (l Layout) BlockIndex() []int32 {
	if l.blockOf != nil {
		return l.blockOf
	}
	idx := make([]int32, l.N)
	for bi, b := range l.Blocks {
		for _, id := range b.Source {
			idx[id] = int32(bi)
		}
		for _, id := range b.Parity {
			idx[id] = int32(bi)
		}
	}
	return idx
}

// Block is one FEC block: the global IDs of its source and parity packets.
type Block struct {
	Source []int
	Parity []int
}

// Validate checks the structural invariants of the layout: ID ranges,
// density, and that blocks partition the ID space with sources below K.
func (l Layout) Validate() error {
	if l.K <= 0 || l.N < l.K {
		return fmt.Errorf("core: invalid layout k=%d n=%d", l.K, l.N)
	}
	if len(l.Blocks) == 0 {
		return fmt.Errorf("core: layout has no blocks")
	}
	seen := make([]bool, l.N)
	nsrc, npar := 0, 0
	for bi, b := range l.Blocks {
		if len(b.Source) == 0 {
			return fmt.Errorf("core: block %d has no source packets", bi)
		}
		for _, id := range b.Source {
			if id < 0 || id >= l.K {
				return fmt.Errorf("core: block %d source id %d outside [0,%d)", bi, id, l.K)
			}
			if seen[id] {
				return fmt.Errorf("core: packet id %d appears twice", id)
			}
			seen[id] = true
			nsrc++
		}
		for _, id := range b.Parity {
			if id < l.K || id >= l.N {
				return fmt.Errorf("core: block %d parity id %d outside [%d,%d)", bi, id, l.K, l.N)
			}
			if seen[id] {
				return fmt.Errorf("core: packet id %d appears twice", id)
			}
			seen[id] = true
			npar++
		}
	}
	if nsrc != l.K || nsrc+npar != l.N {
		return fmt.Errorf("core: blocks cover %d source / %d total packets, want %d / %d",
			nsrc, nsrc+npar, l.K, l.N)
	}
	return nil
}

// IsSource reports whether the given packet ID is a source packet.
func (l Layout) IsSource(id int) bool { return id < l.K }

// ExpansionRatio returns n/k, the paper's "FEC expansion ratio".
func (l Layout) ExpansionRatio() float64 { return float64(l.N) / float64(l.K) }

// Code is an FEC code instance for a fixed (k, n): it exposes its layout and
// mints fresh per-trial receivers. Implementations must be safe for
// concurrent use by multiple receivers (the sweep engine shares one Code
// across worker goroutines).
type Code interface {
	// Name identifies the code family, e.g. "ldgm-staircase".
	Name() string
	// Layout returns the packet layout. It must not change over time.
	Layout() Layout
	// NewReceiver returns a fresh incremental decoder state.
	NewReceiver() Receiver
}

// Receiver is the receiving half of a code: packets are delivered in
// arrival order, exactly as the paper's receivers experience them — one at
// a time, or a batch of transmissions at a time as RunTrial delivers them.
// A simulation reuses one receiver across its trials through Reset.
type Receiver interface {
	// Receive processes the arrival of packet id and returns true once the
	// full object is decoded (all k source packets recovered). Delivering
	// duplicates or packets after completion is allowed and must be a no-op.
	Receive(id int) bool
	// ReceiveBatch delivers ids[j] for every set bit j of arrived, in
	// increasing j, exactly as that many Receive calls would, and stops
	// after the arrival that completes the object. It returns the
	// arrivals consumed, whether the object is decoded, and the largest
	// BufferedSymbols after any arrival this call consumed (0 when it
	// consumes none). len(ids) must cover arrived's highest bit. A
	// receiver that gains nothing from a batch implements it with
	// ReceiveEach.
	ReceiveBatch(ids []int32, arrived uint64) (consumed int, decoded bool, peak int)
	// Reset returns the receiver to its NewReceiver state, between
	// simulated trials. Payload decoders panic on it.
	Reset()
	// Done reports whether the object has been fully decoded.
	Done() bool
	// SourceRecovered returns how many of the k source packets are
	// currently known (received or rebuilt).
	SourceRecovered() int
	// BufferedSymbols is the metric the paper's conclusion defers to
	// future work, the memory a receiver needs: how many symbols the
	// decoder currently has to hold (received but not yet released as
	// decoded output). RunTrial tracks its running maximum.
	BufferedSymbols() int
}

// ReceiveEach is ReceiveBatch for a receiver that decodes one arrival at a
// time: one Receive per arrival, BufferedSymbols after each.
func ReceiveEach(rx Receiver, ids []int32, arrived uint64) (n int, decoded bool, peak int) {
	for ; arrived != 0; arrived &= arrived - 1 {
		n++
		decoded = rx.Receive(int(ids[bits.TrailingZeros64(arrived)]))
		peak = max(peak, rx.BufferedSymbols())
		if decoded {
			break
		}
	}
	return n, decoded, peak
}

// BlockMDS is an optional Code capability marking codes whose decoding
// is exactly threshold-per-block (MDS): a block with k_b source packets
// decodes the moment k_b distinct packets of that block have arrived —
// never earlier, never later. The fleet engine requires it: a fleet
// receiver is then a per-block countdown counter instead of real
// decoder state. Iterative codes (LDGM/LDPC), whose completion point
// depends on *which* packets arrived, must not implement this.
type BlockMDS interface {
	Code
	// BlockMDS reports whether this instance decodes every block at
	// exactly its distinct-symbol threshold.
	BlockMDS() bool
}

// Channel decides, transmission by transmission, whether a packet is lost.
// A Channel is stateful (the Gilbert model has memory); one fresh instance
// is used per trial. RunTrial samples it up to 64 transmissions ahead of
// the receiver, so a Channel must not depend on what was received.
type Channel interface {
	// Lost returns whether the next transmitted packet is erased.
	Lost() bool
}

// LossMasker is an optional Channel capability: the channel's losses a
// batch at a time. RunTrial asks for masks when a channel has it and
// samples Lost otherwise.
type LossMasker interface {
	// LossMask advances the channel n (1 ≤ n ≤ 64) transmissions and
	// returns bit j set iff transmission j is lost — exactly the values
	// n successive Lost calls would return.
	LossMask(n int) uint64
}

// LossMask returns the next n (≤ 64) transmissions of ch as a loss mask:
// asked of the channel when it is a LossMasker, n Lost calls otherwise.
func LossMask(ch Channel, n int) uint64 {
	if m, ok := ch.(LossMasker); ok {
		return m.LossMask(n)
	}
	var mask uint64
	for j := 0; j < n; j++ {
		if ch.Lost() {
			mask |= 1 << j
		}
	}
	return mask
}

// Scheduler produces the transmission order of packet IDs for one trial.
// Randomised schedulers draw their seeds from rng — all randomness is
// captured at Schedule time, so the returned Schedule is a pure,
// reproducible function of position.
type Scheduler interface {
	// Name identifies the transmission model, e.g. "tx2".
	Name() string
	// Schedule returns the lazy transmission order. It usually covers a
	// permutation of [0,N) but may be shorter (Tx_model_6 sends only a
	// subset) or longer (repetition schemes send duplicates).
	Schedule(l Layout, rng *rand.Rand) Schedule
}

// TrialResult is the outcome of a single simulated reception.
type TrialResult struct {
	// Decoded reports whether the receiver rebuilt the whole object.
	Decoded bool
	// NNecessary is the number of packets received at the moment decoding
	// completed (the paper's n_necessary_for_decoding). Zero if !Decoded.
	NNecessary int
	// NReceived is the total number of packets received over the whole
	// schedule, including those arriving after decoding completed.
	NReceived int
	// NSent is the number of packets actually transmitted.
	NSent int
	// MaxBuffered is the peak number of symbols the receiver had to hold
	// at once: the largest BufferedSymbols after any arrival it consumed.
	MaxBuffered int
}

// Inefficiency returns n_necessary/k, the paper's central metric.
func (r TrialResult) Inefficiency(k int) float64 {
	return float64(r.NNecessary) / float64(k)
}

// Trial is the reusable scratch of RunTrial: a batch's ids. A caller
// running many trials keeps one, so a trial allocates nothing; a Trial
// serves one goroutine at a time.
type Trial struct {
	ids [64]int32
}

// RunTrial simulates one reception with a Trial of its own; see
// Trial.Run.
func RunTrial(schedule Schedule, ch Channel, rx Receiver, nsent int) TrialResult {
	return new(Trial).Run(schedule, ch, rx, nsent)
}

// Run simulates one reception: it walks the schedule lazily, asks the
// channel which transmissions are erased, and feeds survivors to the
// receiver in arrival order. The schedule is never materialised — each
// position is evaluated as it is sent, so a trial's memory is the
// receiver's, not the scheduler's. nsent truncates the schedule when
// positive (the paper's Section 6 transmission-stopping optimisation);
// pass 0 to send everything.
//
// Transmissions go in batches of up to 64: the channel's losses as one
// mask (LossMasker, or that many Lost calls), so it runs up to 64
// transmissions ahead of the receiver; the batch's ids in one schedule
// draw; and the survivors to the receiver in one ReceiveBatch call. Once
// the object decodes, no further ids are drawn and the receiver is not
// called again: the rest of the schedule only counts towards NReceived.
// A result depends on which ids arrived and in what order, never on the
// batching.
func (t *Trial) Run(schedule Schedule, ch Channel, rx Receiver, nsent int) TrialResult {
	if nsent <= 0 || nsent > schedule.Len() {
		nsent = schedule.Len()
	}
	res := TrialResult{NSent: nsent}
	// A batch's ids arrive in one draw, which for permutation-backed
	// schedules amortises the Feistel walk across interleaved lanes
	// instead of paying its serial latency per packet.
	for pos := 0; pos < nsent; pos += len(t.ids) {
		n := min(nsent-pos, len(t.ids))
		got := ^LossMask(ch, n) & (uint64(1)<<n - 1)
		if res.Decoded {
			res.NReceived += bits.OnesCount64(got)
			continue
		}
		schedule.batchAt(pos, t.ids[:n])
		used, decoded, peak := rx.ReceiveBatch(t.ids[:n], got)
		res.NReceived += used
		res.MaxBuffered = max(res.MaxBuffered, peak)
		if decoded {
			res.Decoded, res.NNecessary = true, res.NReceived
			res.NReceived += bits.OnesCount64(got) - used // the batch's later arrivals
		}
	}
	return res
}
