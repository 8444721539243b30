package daemon

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fecperf/internal/channel"
	"fecperf/internal/obs"
	"fecperf/internal/transport"
)

// TestControlPlane drives the whole HTTP face against a live daemon:
// add (JSON bodies), list, get, reload (mutable accepted,
// immutable rejected with the diff error), delete, and drain — and the
// handler mounted on the obs exposition server next to /metrics.
func TestControlPlane(t *testing.T) {
	const addr = "239.0.0.7:9000"
	hubs := newTestHubs()
	defer hubs.close()
	// A receiver keeps the loopback draining.
	rx := hubs.hub(addr).Receiver(channel.NoLoss{}, 1<<14)
	go func() {
		buf := make([]byte, 2048)
		for {
			if _, err := rx.Recv(buf); err != nil {
				return
			}
		}
	}()

	reg := obs.NewRegistry("fecperf")
	d := New(Config{Rate: 200_000, BatchSize: 8, DrainTimeout: 10 * time.Second, Metrics: reg, Dial: hubs.dial})
	defer d.Close()

	// The control plane rides the obs exposition listener.
	srv, err := obs.Serve("127.0.0.1:0", reg, obs.ServeConfig{
		Extra: map[string]http.Handler{"/casts": d.ControlHandler(), "/casts/": d.ControlHandler(), "/drain": d.ControlHandler()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	// In-process data stands in for a file; the spec line has no Data
	// field, so seed the cast through the Go API and exercise the HTTP
	// POST with its error paths.
	if err := d.AddCast(CastSpec{Name: "docs", Addr: addr, Delivery: transport.Delivery{BaseObjectID: 5, Seed: 9}, Data: testData(8<<10, 11)}); err != nil {
		t.Fatal(err)
	}

	do := func(method, path, body string) (int, string) {
		t.Helper()
		var req *http.Request
		if body == "" {
			req = httptest.NewRequest(method, base+path, nil)
		} else {
			req = httptest.NewRequest(method, base+path, strings.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
		}
		req.RequestURI = ""
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}

	// GET /casts lists the running cast.
	code, body := do("GET", "/casts", "")
	if code != http.StatusOK || !strings.Contains(body, `"name":"docs"`) {
		t.Fatalf("GET /casts = %d %s", code, body)
	}
	var listing struct {
		Casts    []CastStatus `json:"casts"`
		Draining bool         `json:"draining"`
		Rate     float64      `json:"rate"`
	}
	if err := json.Unmarshal([]byte(body), &listing); err != nil {
		t.Fatalf("GET /casts body: %v", err)
	}
	if len(listing.Casts) != 1 || listing.Rate != 200_000 || listing.Draining {
		t.Errorf("listing = %+v", listing)
	}

	// POST /casts with a broken spec and with a missing source.
	if code, body = do("POST", "/casts", specBody("name=only")); code != http.StatusBadRequest {
		t.Errorf("POST bad spec = %d %s", code, body)
	}
	if code, body = do("POST", "/casts", `{"spec": "name=nofile,addr=`+addr+`"}`); code != http.StatusConflict ||
		!strings.Contains(body, "needs file=") {
		t.Errorf("POST sourceless cast = %d %s", code, body)
	}

	// GET /casts/{name} and 404.
	if code, body = do("GET", "/casts/docs", ""); code != http.StatusOK || !strings.Contains(body, `"state":"running"`) {
		t.Errorf("GET /casts/docs = %d %s", code, body)
	}
	if code, _ = do("GET", "/casts/ghost", ""); code != http.StatusNotFound {
		t.Errorf("GET /casts/ghost = %d", code)
	}

	// Reload: immutable key rejected with the diff, mutable accepted.
	docsStatus, _ := d.CastStatus("docs")
	immutable := strings.Replace(docsStatus.Spec, "addr="+addr, "addr=other:1", 1)
	if code, body = do("POST", "/casts/docs/reload", specBody(immutable)); code != http.StatusConflict ||
		!strings.Contains(body, "immutable keys changed: addr") {
		t.Errorf("immutable reload = %d %s", code, body)
	}
	mutable := strings.Replace(docsStatus.Spec, "ratio=1.5", "ratio=2", 1) // codec=rse(ratio=1.5) → 2
	if code, body = do("POST", "/casts/docs/reload", specBody(mutable)); code != http.StatusOK {
		t.Errorf("mutable reload = %d %s", code, body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, _ := d.CastStatus("docs")
		if st.Reloads >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reload never applied: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// /metrics serves next door, including the per-cast labeled series.
	if code, body = do("GET", "/metrics", ""); code != http.StatusOK ||
		!strings.Contains(body, `daemon_cast_packets_total{cast="docs"}`) {
		t.Errorf("GET /metrics = %d (per-cast series present: %t)", code, strings.Contains(body, "daemon_cast_packets_total"))
	}

	// DELETE removes the cast.
	if code, _ = do("DELETE", "/casts/docs", ""); code != http.StatusNoContent {
		t.Errorf("DELETE /casts/docs = %d", code)
	}
	if code, _ = do("DELETE", "/casts/docs", ""); code != http.StatusNotFound {
		t.Errorf("second DELETE = %d", code)
	}

	// POST /drain flips the daemon into draining and completes (no casts
	// left).
	if code, body = do("POST", "/drain", ""); code != http.StatusAccepted {
		t.Fatalf("POST /drain = %d %s", code, body)
	}
	select {
	case <-d.Drained():
	case <-time.After(10 * time.Second):
		t.Fatal("drain never completed")
	}
	if code, body = do("GET", "/casts", ""); code != http.StatusOK || !strings.Contains(body, `"draining":true`) {
		t.Errorf("GET /casts after drain = %d %s", code, body)
	}
}

// specBody is the JSON body of a spec-carrying control call.
func specBody(line string) string {
	b, _ := json.Marshal(controlRequest{Spec: line})
	return string(b)
}

// TestControlPlaneRefusesBrowsers sends the control plane what a web page
// can make a browser send: a cross-origin text/plain POST /casts — a CORS
// simple request, sent with no preflight — naming a readable file and a
// UDP listener. It must be refused with no cast added and no datagram
// sent. So must a request whose Host is not the listener's address (a
// DNS-rebound name) and a text/plain body from curl, while the JSON form
// from the listener's own origin is served.
func TestControlPlaneRefusesBrowsers(t *testing.T) {
	udp, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()
	file := filepath.Join(t.TempDir(), "secret")
	if err := os.WriteFile(file, testData(4<<10, 3), 0o600); err != nil {
		t.Fatal(err)
	}
	d := New(Config{Rate: 100_000})
	defer d.Close()
	srv, err := obs.Serve("127.0.0.1:0", obs.NewRegistry("fecperf"), obs.ServeConfig{
		Extra: map[string]http.Handler{"/casts": d.ControlHandler(), "/casts/": d.ControlHandler(), "/drain": d.ControlHandler()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()
	line := "name=x,addr=" + udp.LocalAddr().String() + ",file=" + file

	port := srv.Addr()[strings.LastIndex(srv.Addr(), ":")+1:]
	post := func(path, contentType, body, origin, host string) int {
		t.Helper()
		req, err := http.NewRequest("POST", base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", contentType)
		if origin != "" {
			req.Header.Set("Origin", origin)
		}
		if host != "" {
			req.Host = host
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	for _, c := range []struct{ name, path, contentType, body, origin, host string }{
		{"cross-origin text/plain", "/casts", "text/plain", line, "https://evil.example", ""},
		{"cross-origin JSON", "/casts", "application/json", specBody(line), "https://evil.example", ""},
		{"rebound host", "/casts", "application/json", specBody(line), "", "evil.example:" + port},
		{"text/plain without origin", "/casts", "text/plain", line, "", ""},
		{"form body", "/casts", "application/x-www-form-urlencoded", line, "", ""},
		{"cross-origin drain", "/drain", "text/plain", "", "https://evil.example", ""},
	} {
		if code := post(c.path, c.contentType, c.body, c.origin, c.host); code < 400 || code > 499 {
			t.Errorf("%s: status %d, want 4xx", c.name, code)
		}
	}
	if casts := d.Casts(); len(casts) != 0 || d.Draining() {
		t.Fatalf("refused requests changed the daemon: casts %+v, draining %t", casts, d.Draining())
	}
	udp.SetReadDeadline(time.Now().Add(300 * time.Millisecond)) //nolint:errcheck
	if n, _, err := udp.ReadFrom(make([]byte, 2048)); err == nil {
		t.Fatalf("a refused request sent a %d-byte datagram", n)
	}

	// The listener's own origin, in JSON, is served; so is localhost.
	if code := post("/casts", "application/json", specBody(line), base, ""); code != http.StatusCreated {
		t.Fatalf("same-origin JSON POST /casts = %d", code)
	}
	req, _ := http.NewRequest("GET", base+"/casts/x", nil)
	req.Host = "localhost:" + port
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /casts/x as localhost = %d", resp.StatusCode)
	}
}
