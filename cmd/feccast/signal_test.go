package main

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestSIGTERMStopsCarousel regression-tests the subcommands' signal
// wiring with a real signal: an unbounded send carousel (rounds=0)
// must shut down cleanly — exit status success, like Ctrl-C — when the
// process receives SIGTERM from a supervisor.
func TestSIGTERMStopsCarousel(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "p.bin")
	if err := os.WriteFile(file, bytes.Repeat([]byte("terminate the carousel "), 1000), 0o644); err != nil {
		t.Fatal(err)
	}
	// Hold the destination socket ourselves: one datagram read proves
	// the carousel is live before the signal fires.
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	addr := pc.LocalAddr().String()

	var wg sync.WaitGroup
	wg.Add(1)
	var sendErr error
	go func() {
		defer wg.Done()
		sendErr = run([]string{"send", "-addr", addr, "-file", file,
			"-spec", "rate=2000,rounds=0"})
	}()

	pc.SetReadDeadline(time.Now().Add(30 * time.Second))
	buf := make([]byte, 2048)
	if _, _, err := pc.ReadFrom(buf); err != nil {
		t.Fatalf("carousel never reached the wire: %v", err)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("send ignored SIGTERM")
	}
	if sendErr != nil {
		t.Fatalf("SIGTERM shutdown not clean: %v", sendErr)
	}
}
