package engine

// The oracle for the masked trial loop: core.RunTrial steps a channel 64
// transmissions at a time and stops drawing ids once the object decodes;
// every result must still be the one the scalar loop — one Lost per
// transmission over a fresh chain per trial, every survivor to the
// receiver until it decodes — produces from the same splitmix64 state. The plan
// golden pins gilbert and bernoulli at full schedules only; this covers
// noloss, markov, traces and truncation, for every family.

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"fecperf/internal/channel"
	"fecperf/internal/codes"
	"fecperf/internal/core"
	"fecperf/internal/sched"
)

// scalarTrial is RunTrial before masks: one Lost per transmission, ids
// by random access, every survivor to the receiver until it decodes,
// BufferedSymbols after every reception.
func scalarTrial(schedule core.Schedule, ch core.Channel, rx core.Receiver, nsent int) core.TrialResult {
	if nsent <= 0 || nsent > schedule.Len() {
		nsent = schedule.Len()
	}
	res := core.TrialResult{NSent: nsent}
	for i := 0; i < nsent; i++ {
		id := schedule.At(i)
		if ch.Lost() {
			continue
		}
		res.NReceived++
		if !res.Decoded && rx.Receive(id) {
			res.Decoded = true
			res.NNecessary = res.NReceived
		}
		res.MaxBuffered = max(res.MaxBuffered, rx.BufferedSymbols())
	}
	return res
}

// lostOnly hides every capability of a channel but Lost, so RunTrial
// samples it through its scalar adapter.
type lostOnly struct{ ch core.Channel }

func (l lostOnly) Lost() bool { return l.ch.Lost() }

// trialRunner runs trials the way runShard does: one rng per run,
// reseeded per trial, the channel made right after the schedule draw.
// The scalar runner builds a fresh cs.New(src.State()) per trial, seen
// through Lost only; TestSpecNewMatchesScalarReference (internal/channel)
// pins that chain to the scalar Gilbert and Markov chains.
type trialRunner struct {
	rng  *rand.Rand
	next func() core.Channel
}

func newTrialRunner(cs channel.Spec, scalar bool) *trialRunner {
	src := &core.SplitMixSource{}
	r := &trialRunner{rng: rand.New(src)}
	if scalar {
		r.next = func() core.Channel { return lostOnly{cs.New(src.State())} }
	} else {
		r.next = trialChannels(cs, src)
	}
	return r
}

func (r *trialRunner) schedule(s core.Scheduler, l core.Layout, seed int64) core.Schedule {
	r.rng.Seed(seed)
	return s.Schedule(l, r.rng)
}

// gridCodes returns every codec family's code at k and ratio 2.5 (1 for
// no-fec), then the ldgm-staircase one with decoder=gauss: the peeler
// with its Gaussian fallback. Each is named after its family, the last
// "ldgm-staircase+gauss".
func gridCodes(t *testing.T, k int) []core.Code {
	var specs []codes.Spec
	for _, family := range codes.CodecNames {
		ratio := 2.5
		if family == "no-fec" {
			ratio = 1
		}
		specs = append(specs, codes.Spec{Family: family, K: k, Ratio: ratio, Seed: 1})
	}
	specs = append(specs, codes.Spec{Family: "ldgm-staircase", K: k, Ratio: 2.5, Seed: 1, Decoder: "gauss"})
	var cs []core.Code
	for _, s := range specs {
		code, err := s.New()
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, code)
	}
	return cs
}

// trialGrid runs the oracles' grid: each code of gridCodes (k = 100)
// under every scheduler and channel below, the schedule sent whole and
// cut after 1, 63, 64, 65 and N-1 transmissions, three seeds each. setup is called once per code, scheduler and channel,
// and the check it returns runs every trial of that cell, so runners it
// builds carry their chains from trial to trial as runShard's do. A
// check returns what went wrong.
func trialGrid(t *testing.T, setup func(code core.Code, s core.Scheduler, cs channel.Spec) func(nsent int, seed int64) string) {
	const k, trials = 100, 3
	var pattern []bool // a bursty recorded trace, replayed with wrap-around
	g := channel.NewGilbert(0.2, 0.4, rand.New(rand.NewSource(5)))
	for range 150 {
		pattern = append(pattern, g.Lost())
	}
	channels := []channel.Spec{
		channel.GilbertChannel(0.1, 0.5),
		channel.GilbertChannel(0, 1),
		channel.BernoulliChannel(0.05),
		channel.NoLossChannel(),
		{Kind: "markov", P: 0.1, Q: 0.5},
		channel.TraceChannel(pattern, false),
	}
	schedulers := []string{"tx1", "tx2", "tx4", "tx5", "tx6(frac=0.5)", "rx1(src=10)", "carousel(rounds=2)"}
	for _, code := range gridCodes(t, k) {
		t.Run(code.Name(), func(t *testing.T) {
			for _, name := range schedulers {
				s, err := sched.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				full := s.Schedule(code.Layout(), rand.New(rand.NewSource(1)))
				for _, cs := range channels {
					check := setup(code, s, cs)
					for _, nsent := range []int{0, 1, 63, 64, 65, full.Len() - 1} {
						for tr := range trials {
							if msg := check(nsent, core.DeriveSeed(int64(nsent), uint64(tr))); msg != "" {
								t.Fatalf("%s %s nsent=%d trial %d: %s", name, cs, nsent, tr, msg)
							}
						}
					}
				}
			}
		})
	}
}

func TestRunTrialMasksMatchScalar(t *testing.T) {
	trialGrid(t, func(code core.Code, s core.Scheduler, cs channel.Spec) func(int, int64) string {
		layout := code.Layout()
		masked, wrapped, scalar := newTrialRunner(cs, false), newTrialRunner(cs, false), newTrialRunner(cs, true)
		return func(nsent int, seed int64) string {
			got := core.RunTrial(masked.schedule(s, layout, seed), masked.next(), code.NewReceiver(), nsent)
			viaLost := core.RunTrial(wrapped.schedule(s, layout, seed), lostOnly{wrapped.next()}, code.NewReceiver(), nsent)
			want := scalarTrial(scalar.schedule(s, layout, seed), scalar.next(), code.NewReceiver(), nsent)
			if got != want || viaLost != want {
				return fmt.Sprintf("masks %+v, Lost-only %+v, scalar %+v", got, viaLost, want)
			}
			return ""
		}
	})

	// The decoding packet at either end of its batch, with a receiver
	// that keeps holding its symbols after it decodes: MaxBuffered then
	// depends on the BufferedSymbols read after the decoding Receive.
	for _, c := range []struct {
		name string
		lost []int // positions lost, of 200 sent
		need int
		// decodes at this position, which is this bit of its batch
		pos, bit int
	}{
		{"bit0-first-batch", nil, 1, 0, 0},
		{"bit63-first-batch", nil, 64, 63, 63},
		{"bit0-second-batch", nil, 65, 64, 0},
		{"bit63-second-batch", nil, 128, 127, 63},
		{"bit63-after-losses", []int{3, 10, 11, 12, 40}, 59, 63, 63},
		{"bit0-after-losses", []int{0, 63, 66}, 63, 64, 0},
		{"short-last-batch", []int{199}, 199, 198, 6},
	} {
		t.Run(c.name, func(t *testing.T) {
			pattern := make([]bool, 200)
			for _, p := range c.lost {
				pattern[p] = true
			}
			sch := core.SequenceSchedule(0, 200)
			rx := &holdingReceiver{need: c.need}
			got := core.RunTrial(sch, &channel.Trace{Pattern: pattern}, rx, 0)
			want := scalarTrial(sch, &channel.Trace{Pattern: pattern}, &holdingReceiver{need: c.need}, 0)
			if got != want {
				t.Fatalf("masks %+v, scalar %+v", got, want)
			}
			if c.pos%64 != c.bit || got.NNecessary != c.pos+1-lostBefore(c.lost, c.pos) {
				t.Fatalf("case does not decode at position %d (bit %d): %+v", c.pos, c.bit, got)
			}
			if got.MaxBuffered != c.need || got.NReceived != 200-len(c.lost) {
				t.Fatalf("got %+v, want MaxBuffered %d NReceived %d", got, c.need, 200-len(c.lost))
			}
			if rx.calls != c.need {
				t.Fatalf("receiver called %d times, want %d: nothing after it decodes", rx.calls, c.need)
			}
		})
	}
}

// perID is the reference ReceiveBatch: one Receive per arrival,
// BufferedSymbols after each, up to the arrival that decodes.
type perID struct{ core.Receiver }

func (p perID) ReceiveBatch(ids []int32, arrived uint64) (n int, decoded bool, peak int) {
	for ; arrived != 0 && !decoded; arrived &= arrived - 1 {
		n++
		decoded = p.Receive(int(ids[bits.TrailingZeros64(arrived)]))
		peak = max(peak, p.BufferedSymbols())
	}
	return n, decoded, peak
}

// TestRunTrialBatchMatchesReceive: every receiver of gridCodes, the ML
// receiver's too, fed a batch per call gives the TrialResult it gives fed
// through Receive arrival by arrival, on the whole oracle grid, through
// one reused core.Trial.
func TestRunTrialBatchMatchesReceive(t *testing.T) {
	var trial core.Trial
	trialGrid(t, func(code core.Code, s core.Scheduler, cs channel.Spec) func(int, int64) string {
		layout := code.Layout()
		batched, single := newTrialRunner(cs, false), newTrialRunner(cs, false)
		return func(nsent int, seed int64) string {
			got := trial.Run(batched.schedule(s, layout, seed), batched.next(), code.NewReceiver(), nsent)
			want := trial.Run(single.schedule(s, layout, seed), single.next(), perID{code.NewReceiver()}, nsent)
			if got != want {
				return fmt.Sprintf("batches %+v, Receive per arrival %+v", got, want)
			}
			return ""
		}
	})
}

func lostBefore(lost []int, pos int) int {
	n := 0
	for _, p := range lost {
		if p < pos {
			n++
		}
	}
	return n
}

// holdingReceiver decodes at its need-th distinct packet and reports
// every symbol it got as buffered, before and after decoding.
type holdingReceiver struct {
	need, calls int
	seen        map[int]bool
}

func (r *holdingReceiver) Receive(id int) bool {
	r.calls++
	if r.seen == nil {
		r.seen = map[int]bool{}
	}
	r.seen[id] = true
	return r.Done()
}
func (r *holdingReceiver) ReceiveBatch(ids []int32, arrived uint64) (int, bool, int) {
	return core.ReceiveEach(r, ids, arrived)
}
func (r *holdingReceiver) Reset()               { clear(r.seen) }
func (r *holdingReceiver) Done() bool           { return len(r.seen) >= r.need }
func (r *holdingReceiver) SourceRecovered() int { return len(r.seen) }
func (r *holdingReceiver) BufferedSymbols() int { return len(r.seen) }

// TestRunShardAllocsPerTrial is the allocation gate of the trial loop: a
// trial through runShard allocates nothing — no chain, rng or resolved
// channel model per trial, whatever the channel kind, no receiver (the
// worker resets one) and no batch buffer (the worker's core.Trial holds
// it).
func TestRunShardAllocsPerTrial(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	var specs []PointSpec
	for _, family := range codes.CodecNames {
		ratio := 2.5
		if family == "no-fec" {
			ratio = 1
		}
		code, err := codes.Spec{Family: family, K: 500, Ratio: ratio, Seed: 1}.New()
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, PointSpec{Code: code, Scheduler: sched.TxModel4{}, Seed: 3})
	}
	for _, cs := range []channel.Spec{
		channel.GilbertChannel(0.05, 0.5),
		channel.BernoulliChannel(0.03),
		channel.NoLossChannel(),
		{Kind: "markov", P: 0.05, Q: 0.5},
	} {
		t.Run(cs.Kind, func(t *testing.T) {
			for _, spec := range specs {
				spec.Channel = cs
				shard := func(trials int) float64 {
					return testing.AllocsPerRun(5, func() { newWorker().runShard(context.Background(), spec, 0, trials) })
				}
				const extra = 32
				if perTrial := (shard(1+extra) - shard(1)) / extra; perTrial >= 0.1 {
					t.Errorf("%s %s: %.3f allocations per trial, want < 0.1", spec.Code.Name(), cs, perTrial)
				}
			}
		})
	}
}

// rxState is what a receiver shows of itself: Done, SourceRecovered,
// BufferedSymbols and, for LDGM, Known of every id.
type rxState struct {
	done                bool
	recovered, buffered int
	known               string
}

func stateOf(rx core.Receiver, n int) rxState {
	st := rxState{done: rx.Done(), recovered: rx.SourceRecovered(), buffered: rx.BufferedSymbols()}
	if d, ok := rx.(interface{ Known(int) bool }); ok {
		known := make([]byte, n)
		for id := range known {
			if d.Known(id) {
				known[id] = 1
			}
		}
		st.known = string(known)
	}
	return st
}

// TestResetReceiverIsFreshReceiver: a receiver reset between trials, as
// runShard reuses one, is a fresh receiver — every trial, decoded, failed
// or truncated, gives the TrialResult and leaves the state a new
// NewReceiver would, and after Reset the receiver reads as new. Payload
// decoders refuse Reset.
func TestResetReceiverIsFreshReceiver(t *testing.T) {
	const k, trials = 100, 40
	for _, family := range codes.CodecNames {
		t.Run(family, func(t *testing.T) {
			ratio := 1.5 // low enough that even RS fails at 40 % loss
			if family == "no-fec" {
				ratio = 1
			}
			code, err := codes.Spec{Family: family, K: k, Ratio: ratio, Seed: 1}.New()
			if err != nil {
				t.Fatal(err)
			}
			layout := code.Layout()
			fresh := stateOf(code.NewReceiver(), layout.N)
			reused := code.NewReceiver()
			var decoded, failed, truncated int
			for _, name := range []string{"tx1", "tx4", "tx5", "carousel(rounds=2)"} {
				s, err := sched.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				for _, cs := range []channel.Spec{channel.GilbertChannel(0.2, 0.3), channel.NoLossChannel()} {
					for _, nsent := range []int{0, k / 2} {
						viaReset, viaNew := newTrialRunner(cs, false), newTrialRunner(cs, false)
						for tr := range trials {
							reused.Reset()
							if got := stateOf(reused, layout.N); got != fresh {
								t.Fatalf("%s %s nsent=%d: reset before trial %d reads %+v, a new receiver %+v", name, cs, nsent, tr, got, fresh)
							}
							seed := core.DeriveSeed(int64(nsent), uint64(tr))
							got := core.RunTrial(viaReset.schedule(s, layout, seed), viaReset.next(), reused, nsent)
							rx := code.NewReceiver()
							want := core.RunTrial(viaNew.schedule(s, layout, seed), viaNew.next(), rx, nsent)
							if got != want {
								t.Fatalf("%s %s nsent=%d trial %d: reset receiver %+v, new receiver %+v", name, cs, nsent, tr, got, want)
							}
							if a, b := stateOf(reused, layout.N), stateOf(rx, layout.N); a != b {
								t.Fatalf("%s %s nsent=%d trial %d: reset receiver ends at %+v, new receiver at %+v", name, cs, nsent, tr, a, b)
							}
							switch {
							case got.Decoded:
								decoded++
							case nsent > 0:
								truncated++
							default:
								failed++
							}
						}
					}
				}
			}
			if decoded == 0 || failed == 0 || truncated == 0 {
				t.Fatalf("%d decoded, %d failed, %d truncated trials: want some of each", decoded, failed, truncated)
			}

			dec, err := code.NewDecoder(16)
			if err != nil {
				t.Fatal(err)
			}
			defer dec.Close()
			func() {
				defer func() {
					if recover() == nil {
						t.Error("Reset on a payload decoder did not panic")
					}
				}()
				dec.(core.Receiver).Reset()
			}()
		})
	}
}

// TestRunSpecsSwitchingCodesDeterministic: workers keep the receiver of
// their last code across shards. A queue whose points alternate codes,
// the decoder=gauss receiver's among them, with uneven last shards, gives
// the aggregates of one fresh worker per shard, at 1, 2 and 8 workers.
func TestRunSpecsSwitchingCodesDeterministic(t *testing.T) {
	codeAxis := []struct {
		code  string
		ratio float64
	}{{"ldgm-staircase", 2.5}, {"rse", 1.5}, {"ldgm-triangle", 1.5}, {"no-fec", 1}, {"ldgm-staircase", 1.5},
		{"ldgm-staircase(decoder=gauss)", 2.5}}
	var points []Point
	for i, trials := range []int{13, 5, 21, 9, 8, 1, 17, 12, 3, 30, 7, 11} {
		c := codeAxis[i%len(codeAxis)]
		points = append(points, Point{
			Index:     i,
			Code:      c.code,
			K:         120,
			Ratio:     c.ratio,
			Scheduler: "tx4",
			Channel:   channel.GilbertChannel(0.1, 0.4),
			Trials:    trials,
			Seed:      int64(i),
			CodeSeed:  1,
		})
	}
	want := make([]Aggregate, len(points))
	cache := map[string]core.Code{}
	for i, pt := range points {
		spec, err := materialize(pt, cache)
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < spec.Trials; lo += shardSize {
			part, _ := newWorker().runShard(context.Background(), spec, lo, min(lo+shardSize, spec.Trials))
			want[i].Merge(part)
		}
	}
	for _, workers := range []int{1, 2, 8} {
		got, err := RunPoints(context.Background(), points, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if a, b := marshal(t, got[i].Aggregate), marshal(t, want[i]); a != b {
				t.Fatalf("workers=%d point %d (%s): %s, fresh workers %s", workers, i, points[i].Code, a, b)
			}
		}
	}
}
