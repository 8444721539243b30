package engine

// Fleet determinism golden: a fixed-seed fleet plan whose results are
// committed to testdata/fleet_golden.json. Like plan_golden.json, the
// test asserts W=1 and W=8 both reproduce the file byte for byte,
// pinning seed derivation, the shared schedule draw, the batched
// channel steppers and the percentile summary against drift.
// Regenerate intentionally with
//
//	go test ./internal/engine -run TestFleetGoldenResults -update-golden

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"fecperf/internal/channel"
)

func fleetGoldenPlan() Plan {
	return Plan{
		Codes:      []string{"rse"},
		Ks:         []int{64},
		Ratios:     []float64{2.0},
		Schedulers: []string{"tx2", "carousel(inner=tx2,rounds=2)"},
		Fleets: []FleetSpec{
			{
				Receivers: 500,
				Mix: []MixComponent{
					{Channel: channel.GilbertChannel(0.1, 0.5), Weight: 3},
					{Channel: channel.BernoulliChannel(0.05), Weight: 2},
					{Channel: channel.NoLossChannel(), Weight: 1},
				},
			},
			{
				Receivers: 300,
				Mix:       []MixComponent{{Channel: channel.GilbertChannel(0.2, 0.4)}},
			},
		},
		Seed: 77,
	}
}

func TestFleetGoldenResults(t *testing.T) {
	path := filepath.Join("testdata", "fleet_golden.json")
	plan := fleetGoldenPlan()

	if *updateGolden {
		res, err := Run(context.Background(), plan, Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(marshal(t, res)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}

	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (regenerate with -update-golden): %v", err)
	}
	for _, workers := range []int{1, 8} {
		res, err := Run(context.Background(), plan, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got := marshal(t, res) + "\n"; got != string(want) {
			t.Fatalf("workers=%d fleet results differ from committed golden %s", workers, path)
		}
	}
}
