package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// buildFixedRegistry assembles a registry with one of everything in a
// known state, for the exposition goldens.
func buildFixedRegistry() *Registry {
	r := NewRegistry("fecperf")
	c := r.Counter("sender_packets_total", "Datagrams handed to the conn.", nil)
	c.Add(1234)
	cl := r.Counter("receiver_packets_dropped_total", "Datagrams not ingested.", L("reason", "bad"))
	cl.Add(3)
	r.Counter("receiver_packets_dropped_total", "Datagrams not ingested.", L("reason", "late")).Add(17)
	g := r.Gauge("receiver_inflight_objects", "Objects mid-reassembly.", nil)
	g.Set(5)
	r.GaugeFunc("symbol_live_buffers", "Pool buffers checked out.", nil, func() int64 { return 42 })
	r.CounterFunc("engine_trials_total", "Trials completed.", nil, func() uint64 { return 900 })
	h := r.Histogram("receiver_decode_seconds", "First datagram to decode.", []int64{1_000_000, 10_000_000, 100_000_000}, SecondsUnit, nil)
	h.Observe(500_000)    // 0.5 ms → first bucket
	h.Observe(2_000_000)  // 2 ms → second
	h.Observe(2_000_000)  // 2 ms → second
	h.Observe(70_000_000) // 70 ms → third
	h.Observe(12_000_000_000)
	return r
}

const wantPrometheus = `# HELP fecperf_engine_trials_total Trials completed.
# TYPE fecperf_engine_trials_total counter
fecperf_engine_trials_total 900
# HELP fecperf_receiver_decode_seconds First datagram to decode.
# TYPE fecperf_receiver_decode_seconds histogram
fecperf_receiver_decode_seconds_bucket{le="0.001"} 1
fecperf_receiver_decode_seconds_bucket{le="0.01"} 3
fecperf_receiver_decode_seconds_bucket{le="0.1"} 4
fecperf_receiver_decode_seconds_bucket{le="+Inf"} 5
fecperf_receiver_decode_seconds_sum 12.0745
fecperf_receiver_decode_seconds_count 5
# HELP fecperf_receiver_inflight_objects Objects mid-reassembly.
# TYPE fecperf_receiver_inflight_objects gauge
fecperf_receiver_inflight_objects 5
# HELP fecperf_receiver_packets_dropped_total Datagrams not ingested.
# TYPE fecperf_receiver_packets_dropped_total counter
fecperf_receiver_packets_dropped_total{reason="bad"} 3
fecperf_receiver_packets_dropped_total{reason="late"} 17
# HELP fecperf_sender_packets_total Datagrams handed to the conn.
# TYPE fecperf_sender_packets_total counter
fecperf_sender_packets_total 1234
# HELP fecperf_symbol_live_buffers Pool buffers checked out.
# TYPE fecperf_symbol_live_buffers gauge
fecperf_symbol_live_buffers 42
`

const wantJSON = `{
  "fecperf_engine_trials_total": 900,
  "fecperf_receiver_decode_seconds": {"buckets": {"0.001": 1, "0.01": 3, "0.1": 4, "+Inf": 5}, "count": 5, "sum": 12.0745},
  "fecperf_receiver_inflight_objects": 5,
  "fecperf_receiver_packets_dropped_total{reason=\"bad\"}": 3,
  "fecperf_receiver_packets_dropped_total{reason=\"late\"}": 17,
  "fecperf_sender_packets_total": 1234,
  "fecperf_symbol_live_buffers": 42
}
`

// TestPrometheusGolden pins the exact text exposition: sorted series,
// one HELP/TYPE per family, cumulative buckets with Unit-scaled le
// bounds.
func TestPrometheusGolden(t *testing.T) {
	var sb strings.Builder
	if err := buildFixedRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != wantPrometheus {
		t.Errorf("Prometheus text drifted.\n--- got ---\n%s\n--- want ---\n%s", sb.String(), wantPrometheus)
	}
}

// TestJSONGolden pins the expvar-style JSON view, and checks it is
// actually valid JSON.
func TestJSONGolden(t *testing.T) {
	var sb strings.Builder
	if err := buildFixedRegistry().WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != wantJSON {
		t.Errorf("JSON exposition drifted.\n--- got ---\n%s\n--- want ---\n%s", sb.String(), wantJSON)
	}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &decoded); err != nil {
		t.Fatalf("exposition is not valid JSON: %v", err)
	}
	if decoded["fecperf_sender_packets_total"].(float64) != 1234 {
		t.Error("decoded counter value wrong")
	}
	hist := decoded["fecperf_receiver_decode_seconds"].(map[string]any)
	if hist["count"].(float64) != 5 {
		t.Error("decoded histogram count wrong")
	}
}

// TestServe boots the exposition server on an ephemeral port and
// scrapes every endpoint.
func TestServe(t *testing.T) {
	r := buildFixedRegistry()
	srv, err := Serve("127.0.0.1:0", r, ServeConfig{Pprof: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 || body != wantPrometheus {
		t.Errorf("/metrics code=%d body:\n%s", code, body)
	}
	if code, body := get("/metrics.json"); code != 200 || body != wantJSON {
		t.Errorf("/metrics.json code=%d body:\n%s", code, body)
	}
	if code, body := get("/metrics?format=json"); code != 200 || body != wantJSON {
		t.Errorf("/metrics?format=json code=%d body:\n%s", code, body)
	}
	if code, body := get("/debug/vars"); code != 200 || !strings.Contains(body, "fecperf_sender_packets_total") {
		t.Errorf("/debug/vars code=%d does not carry the registry (body %q)", code, body)
	}
	if code, body := get("/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Errorf("/debug/pprof/cmdline code=%d empty=%v", code, body == "")
	}

	if _, err := Serve("127.0.0.1:0", nil, ServeConfig{}); err == nil {
		t.Fatal("Serve with nil registry succeeded")
	}
}

// TestServeExpvarForgetsClosedServers: /debug/vars carries the registries
// of the servers that are serving, not of one closed before them, so a
// closed server's registry (and what its CounterFunc closures hold) can
// be collected.
func TestServeExpvarForgetsClosedServers(t *testing.T) {
	r1 := NewRegistry("fecperf")
	r1.Counter("one_dead_total", "A closed server's series.", nil).Inc()
	s1, err := Serve("127.0.0.1:0", r1, ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()
	r2 := NewRegistry("fecperf")
	r2.Counter("two_live_total", "A live server's series.", nil).Inc()
	s2, err := Serve("127.0.0.1:0", r2, ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	// A metrics-only server is open to a scraper that names it by DNS.
	req, err := http.NewRequest("GET", "http://"+s2.Addr()+"/debug/vars", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Host = "metrics.example:80"
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "fecperf_two_live_total") {
		t.Fatalf("/debug/vars = %d without the live server's series: %s", resp.StatusCode, body)
	}
	if strings.Contains(string(body), "fecperf_one_dead_total") {
		t.Fatalf("/debug/vars still reports the closed server's registry: %s", body)
	}
}
