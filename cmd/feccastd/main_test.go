package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"fecperf"
)

// freeAddr reserves an ephemeral localhost port on network ("udp" or
// "tcp") and releases it for the daemon under test.
func freeAddr(t *testing.T, network string) string {
	t.Helper()
	if network == "udp" {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := pc.LocalAddr().String()
		pc.Close()
		return addr
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		return 0, err.Error()
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func TestRunRejectsBadUsage(t *testing.T) {
	dir := t.TempDir()
	badFile := filepath.Join(dir, "casts.conf")
	writeFile(t, badFile, "# comment\n\nname=ok,addr=127.0.0.1:1,file=x\nnot-a-spec==\n")
	hup := make(chan os.Signal)
	for _, args := range [][]string{
		{"-bogus-flag"},
		{"-cast", "name=broken,addr="},                 // bad inline spec
		{"-cast", "addr=127.0.0.1:1,file=x"},           // missing name
		{"-casts", filepath.Join(dir, "missing.conf")}, // no such file
		{"-casts", badFile},                            // bad line inside
		{"-cast", "name=a,addr=h:1,file=x", "-cast", "name=a,addr=h:2,file=y"}, // dup
		{"-cast", "name=a,addr=h:1,file=/definitely/not/here.bin"},             // unreadable source
		{"-rate", "NaN"}, {"-rate", "-1"}, {"-rate", "+Inf"}, {"-burst", "-3"}, // the spec keys' pacing rule
	} {
		err := run(context.Background(), hup, args, io.Discard, io.Discard)
		if err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestRunRefusesSimulatedDecoder: decoder=gauss selects a simulated
// receiver; receivers on the wire build their codec from the header and
// peel, so a cast spec carrying it is an error before anything is sent.
func TestRunRefusesSimulatedDecoder(t *testing.T) {
	src := filepath.Join(t.TempDir(), "src.bin")
	writeFile(t, src, "a few bytes to cast")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	line := "name=g,addr=" + freeAddr(t, "udp") + ",file=" + src + ",codec=ldgm-staircase(decoder=gauss)"
	err := run(ctx, make(chan os.Signal), []string{"-cast", line}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "always peel") {
		t.Fatalf("run(-cast %q) = %v, want the decoder refused", line, err)
	}
}

// TestFeccastdEndToEnd runs the real daemon over localhost UDP: two
// carousels from a spec file, a receiver decoding both, the control
// plane answering on the shared listener, a SIGHUP converging the
// running set on an edited file, and a context-cancel drain.
func TestFeccastdEndToEnd(t *testing.T) {
	dir := t.TempDir()
	payloadA := bytes.Repeat([]byte("cast A through the daemon! "), 1500) // ~40 KiB
	payloadB := bytes.Repeat([]byte("cast B rides along. "), 1500)        // ~30 KiB
	fileA := filepath.Join(dir, "a.bin")
	fileB := filepath.Join(dir, "b.bin")
	writeFile(t, fileA, string(payloadA))
	writeFile(t, fileB, string(payloadB))

	dst := freeAddr(t, "udp")
	conn, err := fecperf.Listen(dst)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rd := fecperf.NewReceiverDaemon(conn, fecperf.ReceiverDaemonConfig{})
	go rd.Run(ctx)

	castsFile := filepath.Join(dir, "casts.conf")
	writeFile(t, castsFile, fmt.Sprintf(
		"# the daemon's starting set\nname=alpha,addr=%s,file=%s,object=3,seed=5,codec=rse(ratio=2)\n",
		dst, fileA))

	control := freeAddr(t, "tcp")
	runCtx, stopRun := context.WithCancel(context.Background())
	defer stopRun()
	hup := make(chan os.Signal, 1)
	runDone := make(chan error, 1)
	go func() {
		runDone <- run(runCtx, hup, []string{
			"-control", control, "-rate", "8000", "-batch", "16",
			"-drain-timeout", "20s", "-casts", castsFile,
		}, io.Discard, io.Discard)
	}()

	// The first carousel decodes end to end.
	gotA, err := rd.WaitObject(ctx, 3)
	if err != nil {
		t.Fatalf("alpha never decoded: %v", err)
	}
	if !bytes.Equal(gotA, payloadA) {
		t.Fatal("alpha decoded bytes differ from the file")
	}

	// The control plane answers on the same listener.
	base := "http://" + control
	code, body := httpGet(t, base+"/casts")
	if code != http.StatusOK || !strings.Contains(body, `"name":"alpha"`) {
		t.Fatalf("GET /casts = %d %s", code, body)
	}
	if code, _ := httpGet(t, base+"/metrics"); code != http.StatusOK {
		t.Errorf("GET /metrics = %d", code)
	}

	// SIGHUP converges the running set on the edited file: beta joins,
	// alpha's weight changes.
	writeFile(t, castsFile, fmt.Sprintf(
		"name=alpha,addr=%s,file=%s,object=3,seed=5,codec=rse(ratio=2),weight=3\nname=beta,addr=%s,file=%s,object=4,seed=6,codec=rse(ratio=2)\n",
		dst, fileA, dst, fileB))
	hup <- syscall.SIGHUP
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, body = httpGet(t, base+"/casts")
		if strings.Contains(body, `"name":"beta"`) && strings.Contains(body, `"weight":3`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("SIGHUP never converged: %s", body)
		}
		time.Sleep(10 * time.Millisecond)
	}
	gotB, err := rd.WaitObject(ctx, 4)
	if err != nil {
		t.Fatalf("beta never decoded: %v", err)
	}
	if !bytes.Equal(gotB, payloadB) {
		t.Fatal("beta decoded bytes differ from the file")
	}

	// Context cancellation drains gracefully — run returns nil, not an
	// interruption error.
	stopRun()
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("drain on cancel: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never drained after cancel")
	}
}

// TestFeccastdControlListenerRefusesOtherSites: every route on the
// -control listener — the control plane, the metrics, expvar and pprof —
// refuses a request whose Host is not the listener's address (a
// DNS-rebound name) or whose Origin is another site's, and serves the
// listener's own address.
func TestFeccastdControlListenerRefusesOtherSites(t *testing.T) {
	control := freeAddr(t, "tcp")
	runCtx, stopRun := context.WithCancel(context.Background())
	defer stopRun()
	runDone := make(chan error, 1)
	go func() {
		runDone <- run(runCtx, make(chan os.Signal), []string{"-control", control, "-pprof"}, io.Discard, io.Discard)
	}()
	base := "http://" + control
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if code, _ := httpGet(t, base+"/casts"); code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("control listener never answered")
		}
	}
	port := control[strings.LastIndex(control, ":")+1:]
	get := func(path, host, origin string) int {
		t.Helper()
		req, err := http.NewRequest("GET", base+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if host != "" {
			req.Host = host
		}
		if origin != "" {
			req.Header.Set("Origin", origin)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, path := range []string{"/casts", "/metrics", "/metrics.json", "/debug/vars", "/debug/pprof/"} {
		if code := get(path, "evil.example:"+port, ""); code != http.StatusForbidden {
			t.Errorf("GET %s with a rebound Host = %d, want 403", path, code)
		}
		if code := get(path, "", "https://evil.example"); code != http.StatusForbidden {
			t.Errorf("GET %s with a foreign Origin = %d, want 403", path, code)
		}
		if code := get(path, "", base); code != http.StatusOK {
			t.Errorf("GET %s from the listener's own address = %d, want 200", path, code)
		}
	}
	stopRun()
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("drain on cancel: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never stopped after cancel")
	}
}

// TestFeccastdSIGTERMDrains exercises the exact signal wiring main
// installs: a real SIGTERM to this process must cancel the context and
// drain the daemon, same as SIGINT.
func TestFeccastdSIGTERMDrains(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "p.bin")
	writeFile(t, file, strings.Repeat("terminate me gently ", 1000))

	control := freeAddr(t, "tcp")
	dst := freeAddr(t, "udp")
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hup := make(chan os.Signal, 1)
	runDone := make(chan error, 1)
	go func() {
		runDone <- run(sigCtx, hup, []string{
			"-control", control, "-rate", "4000",
			"-cast", "name=solo,addr=" + dst + ",file=" + file + ",codec=rse(ratio=2)",
		}, io.Discard, io.Discard)
	}()
	// Give the daemon a moment to start its carousel, then deliver the
	// real signal.
	time.Sleep(200 * time.Millisecond)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("SIGTERM drain: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon ignored SIGTERM")
	}
}
