package engine

// Post-refactor determinism goldens: a fixed-seed sweep over the
// streaming schedulers (including the parameterized models) whose
// results are committed to testdata/plan_golden.json. The test asserts
// W=1 and W=8 runs both reproduce the file byte for byte, pinning the
// full chain — seed derivation, Feistel schedule draws, shard merge
// order — against silent drift. Regenerate intentionally with
//
//	go test ./internal/engine -run TestPlanGoldenResults -update-golden
import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"fecperf/internal/channel"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/plan_golden.json")

func goldenPlan() Plan {
	return Plan{
		Codes:      []string{"ldgm-staircase", "rse"},
		Ks:         []int{120},
		Ratios:     []float64{2.0},
		Schedulers: []string{"tx2", "tx4", "tx6(frac=0.5)", "rx1(src=10)"},
		Channels: []channel.Spec{
			channel.GilbertChannel(0, 1),
			channel.GilbertChannel(0.1, 0.5),
			channel.BernoulliChannel(0.05),
		},
		Trials: 16,
		Seed:   77,
	}
}

func TestPlanGoldenResults(t *testing.T) {
	path := filepath.Join("testdata", "plan_golden.json")
	plan := goldenPlan()

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
			t.Fatalf("workers=%d results differ from committed golden %s", workers, path)
		}
	}
}
