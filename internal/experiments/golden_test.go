package experiments

// The paper's reproduced tables and figures, pinned: every registered
// experiment rendered at a small fixed scale and committed to
// testdata/reports_golden.txt. The runs go through SweepPlan and
// RunPointSpecs, so this pins the engine's seed derivation, shard merge
// order and aggregation as the reports see them, at one worker and at
// two. Regenerate intentionally with
//
//	go test ./internal/experiments -run TestReportsGolden -update-golden
import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/reports_golden.txt")

func renderReports(t *testing.T, workers int) string {
	t.Helper()
	opts := Options{K: 100, Trials: 3, Seed: 1, Grid: []float64{0, 0.05, 0.5}, Workers: workers}
	var b strings.Builder
	for _, e := range List() {
		rep, err := e.Run(opts)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		b.WriteString(rep.Format())
	}
	return b.String()
}

func TestReportsGolden(t *testing.T) {
	path := filepath.Join("testdata", "reports_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(renderReports(t, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (regenerate with -update-golden): %v", err)
	}
	for _, workers := range []int{1, 2} {
		if got := renderReports(t, workers); got != string(want) {
			t.Fatalf("workers=%d reports differ from committed golden %s", workers, path)
		}
	}
}
