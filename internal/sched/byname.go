package sched

// Name-based scheduler resolution for the CLI tools, plans and
// checkpoints — the scheduler-side twin of channel.Parse. Plain names
// select the paper's models with their default parameters; a
// parenthesised key=value list tunes the parameterized ones:
//
//	tx1 .. tx6                   — the six transmission models
//	tx6(frac=0.3)                — Tx_model_6 with a 30% source subset
//	rx1(src=12)                  — Rx_model_1, 12 source packets up front
//	repeat(x=3)                  — no-FEC ×3 repetition
//	carousel(inner=tx2,rounds=4) — 4 carousel rounds of an inner model
//
// Carousel inners nest: carousel(inner=tx6(frac=0.5),rounds=3) parses.
// Every scheduler's Name() renders in a form ByName parses back, so
// names round-trip through plans, checkpoint files and CLI flags.

import (
	"fmt"
	"strconv"
	"strings"

	"fecperf/internal/core"
	"fecperf/internal/spec"
)

// ModelNames lists the model families ByName accepts, with their
// parameter syntax.
func ModelNames() []string {
	return []string{
		"tx1", "tx2", "tx3", "tx4", "tx5", "tx6", "tx6(frac=F)",
		"rx1(src=N)", "repeat(x=R)", "carousel(inner=MODEL,rounds=R)",
	}
}

// ByName resolves a transmission-model name — optionally parameterized —
// into a scheduler. See the package comment of this file for the
// accepted grammar; unknown names and malformed parameters return an
// error listing the valid forms.
func ByName(name string) (core.Scheduler, error) {
	base, args, err := spec.Split(name)
	if err != nil {
		return nil, fmt.Errorf("sched: model %q: %w", name, err)
	}
	switch base {
	case "tx1", "tx2", "tx3", "tx4", "tx5":
		if len(args) != 0 {
			return nil, fmt.Errorf("sched: model %q takes no parameters", base)
		}
		switch base {
		case "tx1":
			return TxModel1{}, nil
		case "tx2":
			return TxModel2{}, nil
		case "tx3":
			return TxModel3{}, nil
		case "tx4":
			return TxModel4{}, nil
		default:
			return TxModel5{}, nil
		}
	case "tx6":
		m := TxModel6{}
		for k, v := range args {
			if k != "frac" {
				return nil, fmt.Errorf("sched: tx6 has no parameter %q (want frac)", k)
			}
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f <= 0 || f > 1 {
				return nil, fmt.Errorf("sched: tx6 frac %q outside (0,1]", v)
			}
			m.SourceFraction = f
		}
		return m, nil
	case "rx1":
		src, ok := args["src"]
		if !ok || len(args) != 1 {
			return nil, fmt.Errorf("sched: rx1 requires exactly the src parameter, e.g. rx1(src=12)")
		}
		n, err := strconv.Atoi(src)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("sched: rx1 src %q is not a non-negative integer", src)
		}
		return RxModel1{SourceCount: n}, nil
	case "repeat":
		m := Repeat{}
		for k, v := range args {
			if k != "x" {
				return nil, fmt.Errorf("sched: repeat has no parameter %q (want x)", k)
			}
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("sched: repeat x %q is not a positive integer", v)
			}
			m.Times = n
		}
		return m, nil
	case "carousel":
		m := Carousel{}
		for k, v := range args {
			switch k {
			case "inner":
				inner, err := ByName(v)
				if err != nil {
					return nil, fmt.Errorf("sched: carousel inner: %w", err)
				}
				m.Inner = inner
			case "rounds":
				n, err := strconv.Atoi(v)
				if err != nil || n < 1 {
					return nil, fmt.Errorf("sched: carousel rounds %q is not a positive integer", v)
				}
				m.Rounds = n
			default:
				return nil, fmt.Errorf("sched: carousel has no parameter %q (want inner, rounds)", k)
			}
		}
		return m, nil
	default:
		return nil, fmt.Errorf("sched: unknown transmission model %q (have %s)",
			name, strings.Join(ModelNames(), ", "))
	}
}
