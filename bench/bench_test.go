package main

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"fecperf/internal/wire"
)

// datagram returns a well-formed datagram of object obj whose payload
// carries seq, so a reader can check order.
func datagram(t *testing.T, obj uint32, seq int) []byte {
	t.Helper()
	payload := make([]byte, 16)
	binary.BigEndian.PutUint64(payload, uint64(seq))
	p := wire.Packet{Family: wire.CodeRSE, ObjectID: obj, PacketID: uint32(seq % 100), K: 100, N: 150, Payload: payload}
	d, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestHeaderIDsAgreeWithWire(t *testing.T) {
	d := datagram(t, 77, 42)
	var p wire.Packet
	if err := wire.DecodeTo(&p, d); err != nil {
		t.Fatal(err)
	}
	if obj, pkt := headerIDs(d); obj != p.ObjectID || pkt != p.PacketID {
		t.Fatalf("headerIDs = (%d, %d), wire.DecodeTo = (%d, %d)", obj, pkt, p.ObjectID, p.PacketID)
	}
}

// The link keeps order and blocks the writer when full: nothing is ever
// dropped for lack of room.
func TestLinkPreservesOrderAndBlocks(t *testing.T) {
	l, err := newLink("", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	const total = linkDepth + 300
	wrote := make(chan error, 1)
	go func() {
		for i := 0; i < total; i++ {
			if err := (linkTx{l}).Send(datagram(t, 5, i)); err != nil {
				wrote <- err
				return
			}
		}
		l.flush() // a tail shorter than linkRxWake needs the writer's flush
		wrote <- nil
	}()
	// The writer must come to rest with the queue exactly full.
	deadline := time.Now().Add(10 * time.Second)
	for {
		l.mu.Lock()
		blocked, queued := l.txWaiting > 0, l.n
		l.mu.Unlock()
		if blocked {
			if queued != linkDepth {
				t.Fatalf("writer blocked with %d queued, want %d", queued, linkDepth)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("writer never blocked on a full link")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-wrote:
		t.Fatalf("writer finished past a full link (err %v)", err)
	default:
	}
	buf := make([]byte, linkMTU)
	for i := 0; i < total; i++ {
		n, err := (linkRx{l}).Recv(buf)
		if err != nil {
			t.Fatal(err)
		}
		if seq := binary.BigEndian.Uint64(buf[wire.HeaderLen:n]); seq != uint64(i) {
			t.Fatalf("datagram %d arrived in position %d", seq, i)
		}
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	st := l.snapshot()
	if st.TxDatagrams != total || st.RxDatagrams != total || st.Erased != 0 || st.TxBlockedNS == 0 {
		t.Fatalf("stats %+v", st)
	}
}

// lossPattern writes n datagrams through a lossy link and returns which
// were erased.
func lossPattern(t *testing.T, seed int64, protect uint32, n int) []bool {
	t.Helper()
	l, err := newLink("gilbert(p=0.05,q=0.5)", seed, protect)
	if err != nil {
		t.Fatal(err)
	}
	bufs := []wire.Datagram{make([]byte, linkMTU)}
	lost := make([]bool, n)
	for i := 0; i < n; i++ {
		before := l.snapshot().Erased
		if err := (linkTx{l}).Send(datagram(t, 5, i)); err != nil {
			t.Fatal(err)
		}
		if lost[i] = l.snapshot().Erased > before; !lost[i] {
			bufs[0] = bufs[0][:linkMTU]
			if _, err := (linkRx{l}).ReadBatch(bufs); err != nil {
				t.Fatal(err)
			}
		}
	}
	return lost
}

func TestLinkLossRepeatsForASeed(t *testing.T) {
	a, b, c := lossPattern(t, 9, 0, 4000), lossPattern(t, 9, 0, 4000), lossPattern(t, 10, 0, 4000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two loss sequences")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("two seeds gave one loss sequence")
	}
	erased := 0
	for _, l := range a {
		if l {
			erased++
		}
	}
	if erased < 4000*5/100 || erased > 4000*14/100 { // stationary loss p/(p+q) = 9.1%
		t.Fatalf("%d of 4000 erased, want about 9%%", erased)
	}
	// The protected object steps the chain like any other but is never erased.
	for i, l := range lossPattern(t, 9, 5, 4000) {
		if l {
			t.Fatalf("datagram %d of the protected object was erased", i)
		}
	}
}

func TestStatsHelpers(t *testing.T) {
	ten := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, med, q3 := quartiles(ten); q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || med != 2 || q3 != 4 {
		t.Fatalf("quartiles of three = %v %v %v", q1, med, q3)
	}
	if m := median(ten); m != 5.5 {
		t.Fatalf("median = %v", m)
	}
	if p := percentile(ten, 90); p < 9.09 || p > 9.11 {
		t.Fatalf("p90 = %v", p)
	}
	if p0, p100 := percentile(ten, 0), percentile(ten, 100); p0 != 1 || p100 != 10 {
		t.Fatalf("p0, p100 = %v, %v", p0, p100)
	}
	s := summarize("ms", ten)
	if got := s.spread(); got != (8.25-2.75)/5.5 {
		t.Fatalf("spread = %v", got)
	}
	if q1, _, q3 := quartiles([]float64{3}); q1 != 3 || q3 != 3 {
		t.Fatal("a single value has no spread")
	}
	// The reported value of a timed metric is the mean of its better half.
	if v := summarizeTimed(metricDef{Unit: "MB/s", Better: "higher"}, ten).Value; v != 8 {
		t.Fatalf("better half of a higher-is-better metric = %v, want mean(6..10) = 8", v)
	}
	if v := summarizeTimed(metricDef{Unit: "ratio", Better: "lower"}, []float64{1.1, 1.1, 1.1}).Value; v != 1.1 {
		t.Fatalf("a value that repeats came out as %v", v)
	}
	if v := summarizeTimed(metricDef{Unit: "ms", Better: "lower"}, []float64{5, 1, 3}).Value; v != 2 {
		t.Fatalf("better half of a lower-is-better metric = %v, want mean(1, 3) = 2", v)
	}
}

func TestBoolValueArgs(t *testing.T) {
	got := boolValueArgs([]string{"--workload", "w", "--trace", "1", "--seed", "0", "-trace"}, "trace")
	want := []string{"--workload", "w", "--trace=1", "--seed", "0", "-trace"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func quickOptions(seed int64, trace bool) options {
	return options{seed: seed, reps: 2, trace: trace, scale: 64, timeout: 30 * time.Second}
}

func castByName(t *testing.T, name string) *castWorkload {
	t.Helper()
	for _, c := range castWorkloads {
		if c.id == name {
			cp := *c
			return &cp
		}
	}
	t.Fatalf("no cast workload %q", name)
	return nil
}

// A link that flips one payload byte must show up as failed operations
// and a non-zero exit, not as a slower run.
func TestCorruptedPayloadFailsTheRun(t *testing.T) {
	w := castByName(t, "cast-rse-lossy")
	w.corruptAt = 300
	res, err := runWorkload(w, quickOptions(1, false), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 || res.correct() {
		t.Fatalf("corruption went unnoticed: %+v", res)
	}
	if d := res.EndToEnd["delivered_ratio"].Value; d >= 1 {
		t.Fatalf("delivered_ratio = %v, want < 1", d)
	}
	if exitCode([]workloadResult{res}) == 0 {
		t.Fatal("exit code 0 for a run with failed operations")
	}
	if line := driverLine(res, false); !strings.Contains(line, `"correct":false`) {
		t.Fatalf("driver line claims a correct run: %s", line)
	}
}

// A repetition that runs out of time is failed operations, never a hang.
func TestTimeoutIsACountedFailure(t *testing.T) {
	for _, w := range []workload{castByName(t, "cast-ldgm-smallpkt"), newSimWorkload()} {
		opt := quickOptions(1, false)
		opt.timeout = time.Nanosecond
		done := make(chan workloadResult, 1)
		go func() {
			res, err := runWorkload(w, opt, nil)
			if err != nil {
				t.Error(err)
			}
			done <- res
		}()
		select {
		case res := <-done:
			if res.Attempted == 0 || res.Failed != res.Attempted || exitCode([]workloadResult{res}) == 0 {
				t.Fatalf("%s: attempted %d, failed %d", w.name(), res.Attempted, res.Failed)
			}
		case <-time.After(60 * time.Second):
			t.Fatalf("%s: a timed-out repetition hung the run", w.name())
		}
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	return decl
}

// BENCHMARK.json and the catalogue in metrics.go declare the same thing.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	decl := readBenchmarkJSON(t)
	if decl.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, catalogue %d", decl.RunSeconds, runSeconds)
	}
	if !reflect.DeepEqual(decl.Paths, []string{"bench"}) || !reflect.DeepEqual(decl.Command, []string{"go", "run", "./bench"}) {
		t.Errorf("command %q paths %q", decl.Command, decl.Paths)
	}
	var names []string
	for _, w := range allWorkloads() {
		names = append(names, w.name())
	}
	var declared []string
	for _, w := range decl.Workloads {
		declared = append(declared, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, declared) {
		t.Errorf("workloads: catalogue %q, BENCHMARK.json %q", names, declared)
	}
	if len(decl.EndToEnd) != len(endToEnd) || len(decl.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d + %d metrics, the catalogue %d + %d",
			len(decl.EndToEnd), len(decl.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if got := decl.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end[%d]: BENCHMARK.json %+v, catalogue %+v", i, got, d)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", d.Name, d.Bound)
		}
	}
	for i, d := range perLayer {
		if got := decl.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer[%d]: BENCHMARK.json %+v, catalogue %+v", i, got, d)
		}
	}
}

// metricNames parses a driver line and returns its metric names, failing
// on a metric without a unit.
func metricNames(t *testing.T, line string) map[string]bool {
	t.Helper()
	var out struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value *float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(line), &out); err != nil {
		t.Fatalf("%v in %s", err, line)
	}
	if !out.Correct || out.Attempted < 1 || out.Failed != 0 {
		t.Fatalf("not a correct run: %s", line)
	}
	names := map[string]bool{}
	for name, m := range out.Metrics {
		if m.Unit == "" || m.Value == nil {
			t.Errorf("metric %s has no value or no unit", name)
		}
		names[name] = true
	}
	return names
}

// A quick run of every socket-free workload emits each declared metric
// exactly once, with a unit, and nothing undeclared — with tracing off
// the end-to-end set, with tracing on the per-layer set.
func TestQuickRunEmitsEveryDeclaredMetric(t *testing.T) {
	decl := readBenchmarkJSON(t)
	wantE2E, wantLayer := map[string]bool{}, map[string]bool{}
	for _, m := range decl.EndToEnd {
		wantE2E[m.Name] = true
	}
	for _, m := range decl.PerLayer {
		wantLayer[m.Name] = true
	}
	ws := []workload{newSimWorkload()}
	for _, c := range castWorkloads {
		ws = append(ws, castByName(t, c.id))
	}
	for _, w := range ws {
		res, err := runWorkload(w, quickOptions(3, true), newTracer())
		if err != nil {
			t.Fatal(err)
		}
		if !res.correct() {
			t.Fatalf("%s: %d of %d operations failed: %v", w.name(), res.Failed, res.Attempted, res.Notes)
		}
		if got := metricNames(t, driverLine(res, false)); !reflect.DeepEqual(got, wantE2E) {
			t.Errorf("%s: end-to-end metrics emitted %v, declared %v", w.name(), got, wantE2E)
		}
		if got := metricNames(t, driverLine(res, true)); !reflect.DeepEqual(got, wantLayer) {
			t.Errorf("%s: per-layer metrics emitted %v, declared %v", w.name(), got, wantLayer)
		}
		for _, d := range endToEnd {
			if v := res.EndToEnd[d.Name].Value; !(v > 0) {
				t.Errorf("%s: %s = %v, end-to-end metrics are never 0", w.name(), d.Name, v)
			}
		}
		if live := res.PerLayer["symbol.live_buffers_end"].Value; live != 0 {
			t.Errorf("%s: %v pooled symbol buffers still checked out", w.name(), live)
		}
	}
}

// The seed reaches only generated inputs: two seeds both verify, and one
// seed repeats the exact-repeat metrics to the last bit.
func TestSeedDrivesInputsAndRepeats(t *testing.T) {
	run := func(seed int64) workloadResult {
		res, err := runWorkload(castByName(t, "cast-rse-lossy"), quickOptions(seed, true), newTracer())
		if err != nil {
			t.Fatal(err)
		}
		if !res.correct() {
			t.Fatalf("seed %d: %d operations failed: %v", seed, res.Failed, res.Notes)
		}
		return res
	}
	a, b, c := run(5), run(5), run(6)
	exact := func(r workloadResult, name string) float64 {
		if s, ok := r.EndToEnd[name]; ok {
			return s.Value
		}
		return r.PerLayer[name].Value
	}
	differs := false
	for _, name := range exactRepeat {
		if exact(a, name) != exact(b, name) {
			t.Errorf("%s: %v then %v for one seed", name, exact(a, name), exact(b, name))
		}
		differs = differs || exact(a, name) != exact(c, name)
	}
	if !differs {
		t.Error("a different seed changed none of the exact-repeat metrics")
	}
}

func TestCompareVerdicts(t *testing.T) {
	file := func(goodput []float64, delivered float64, failed int) resultFile {
		w := workloadResult{Name: "cast-rse-lossy", Attempted: 100, Failed: failed, EndToEnd: map[string]summary{}}
		for _, d := range endToEnd {
			w.EndToEnd[d.Name] = summarize(d.Unit, []float64{1, 1, 1})
		}
		w.EndToEnd["goodput_mb_s"] = summarize("MB/s", goodput)
		w.EndToEnd["delivered_ratio"] = summarize("ratio", []float64{delivered, delivered, delivered})
		return resultFile{Workloads: []workloadResult{w}}
	}
	base := file([]float64{100, 101, 102, 100, 101}, 1, 0)
	for _, tc := range []struct {
		name string
		cand resultFile
		code int
		want string
	}{
		{"same", file([]float64{101, 100, 102, 101, 100}, 1, 0), 0, "0 regressions, 0 unresolved"},
		{"slower", file([]float64{70, 71, 72, 70, 71}, 1, 0), 1, verdictRegression},
		{"noisy", file([]float64{60, 140, 100, 80, 120}, 1, 0), 0, verdictUnresolved},
		{"faster", file([]float64{130, 131, 132, 130, 131}, 1, 0), 0, verdictBetter},
		{"undelivered", file([]float64{100, 101, 102, 100, 101}, 0.99, 1), 1, verdictRegression},
	} {
		code, lines := compareResults(base, tc.cand)
		if out := strings.Join(lines, "\n"); code != tc.code || !strings.Contains(out, tc.want) {
			t.Errorf("%s: exit %d, want %d and %q in:\n%s", tc.name, code, tc.code, tc.want, out)
		}
	}
}
