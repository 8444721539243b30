package experiments

// This file registers the paper's appendix tables (Tables 1-9). Each is a
// single (code, transmission model, ratio) sweep over the 14×14 grid,
// rendered exactly like the appendix: mean inefficiency with three
// decimals, "-" where at least one of the trials failed.

import (
	"fmt"

	"fecperf/internal/core"
	"fecperf/internal/engine"
	"fecperf/internal/sched"
)

type tableSpec struct {
	id, ref   string
	code      string
	ratio     float64
	scheduler core.Scheduler
}

func init() {
	specs := []tableSpec{
		{"table1-tx2-tri-2.5", "Table 1", "ldgm-triangle", 2.5, sched.TxModel2{}},
		{"table2-tx2-sc-2.5", "Table 2", "ldgm-staircase", 2.5, sched.TxModel2{}},
		{"table3-tx2-tri-1.5", "Table 3", "ldgm-triangle", 1.5, sched.TxModel2{}},
		{"table4-tx2-sc-1.5", "Table 4", "ldgm-staircase", 1.5, sched.TxModel2{}},
		{"table5-tx4-tri-2.5", "Table 5", "ldgm-triangle", 2.5, sched.TxModel4{}},
		{"table6-tx4-tri-1.5", "Table 6", "ldgm-triangle", 1.5, sched.TxModel4{}},
		{"table7-tx5-rse-2.5", "Table 7", "rse", 2.5, sched.TxModel5{}},
		{"table8-tx5-rse-1.5", "Table 8", "rse", 1.5, sched.TxModel5{}},
		{"table9-tx6-sc-2.5", "Table 9", "ldgm-staircase", 2.5, sched.TxModel6{}},
	}
	for _, s := range specs {
		s := s
		register(Experiment{
			ID:       s.id,
			PaperRef: s.ref,
			Title:    fmt.Sprintf("%s: %s, %s, FEC expansion ratio %.1f", s.ref, s.scheduler.Name(), s.code, s.ratio),
			Run: func(o Options) (*Report, error) {
				o = o.withDefaults()
				g, err := sweepCode(o, s.code, s.ratio, s.scheduler, o.Grid)
				if err != nil {
					return nil, err
				}
				return &Report{
					ID:    s.id,
					Title: fmt.Sprintf("%s (%s, %s, ratio %.1f)", s.ref, s.scheduler.Name(), s.code, s.ratio),
					Notes: []string{fmt.Sprintf("k=%d, trials=%d", o.K, o.Trials)},
					Tables: []Table{gridTable(
						fmt.Sprintf("%s: %s, FEC expansion ratio = %.1f", s.scheduler.Name(), s.code, s.ratio), g, engine.Aggregate.String)},
				}, nil
			},
		})
	}
}
