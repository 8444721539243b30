package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// startListener runs a recv or collect subcommand on an ephemeral
// localhost port and returns the address it bound — reported by the
// command itself once the socket exists, so a sender started afterwards
// cannot race the bind — plus a func that waits for the command to exit.
func startListener(t *testing.T, args ...string) (addr string, wait func() error) {
	t.Helper()
	bound := make(chan string, 1)
	onListen = func(a string) { bound <- a }
	t.Cleanup(func() { onListen = nil })
	done := make(chan error, 1)
	go func() { done <- run(append(args, "-addr", "127.0.0.1:0")) }()
	select {
	case addr = <-bound:
	case err := <-done:
		t.Fatalf("%s exited before listening: %v", args[0], err)
	case <-time.After(30 * time.Second):
		t.Fatalf("%s never bound its socket", args[0])
	}
	return addr, func() error { return <-done }
}

func TestRunRejectsBadUsage(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"bogus"},
		{"send"}, // missing -file
		{"send", "-file", "x", "-code", "not-a-code"},
		{"send", "-file", "x", "-tx", "tx9"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestSendRecvOverLocalhostUDP drives the real CLI paths end to end: a
// receiver daemon bound to an ephemeral localhost port, a carousel
// sender pointed at it, and a byte-identical file on disk at the end.
func TestSendRecvOverLocalhostUDP(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "payload.bin")
	content := bytes.Repeat([]byte("fecperf over the air! "), 3000) // ~64 KiB
	if err := os.WriteFile(file, content, 0o644); err != nil {
		t.Fatal(err)
	}

	addr, wait := startListener(t, "recv", "-out", dir,
		"-count", "1", "-timeout", "60s", "-stats", "0")

	// Bounded carousel: lossless localhost decodes in round one; the
	// spares cover any kernel-level drops under load.
	if err := run([]string{"send", "-addr", addr, "-file", file,
		"-object", "3", "-code", "ldgm-staircase", "-ratio", "2.0",
		"-rate", "4000", "-rounds", "5", "-tx", "tx4"}); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := wait(); err != nil {
		t.Fatalf("recv: %v", err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "object-3.bin"))
	if err != nil {
		t.Fatalf("decoded object not on disk: %v", err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("decoded file differs from the original")
	}
}

// TestCastCollectOverLocalhostUDP drives the streaming CLI path end to
// end: a collector bound to an ephemeral port, a caster streaming a
// multi-chunk file at it, the whole configuration as one spec string.
func TestCastCollectOverLocalhostUDP(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "stream.bin")
	dst := filepath.Join(dir, "collected.bin")
	content := bytes.Repeat([]byte("stream me through a spec! "), 20000) // ~500 KiB
	if err := os.WriteFile(src, content, 0o644); err != nil {
		t.Fatal(err)
	}

	// Rounds=3 covers kernel-level UDP drops under CI load; the spec
	// string is the whole configuration, shared by both ends.
	castSpec := "codec=rse(k=64,ratio=2),sched=tx4,payload=1024,rate=8000,object=7,window=4,rounds=3,seed=5"
	collectSpec := "object=7,payload=1024,pending=64"

	addr, wait := startListener(t, "collect", "-out", dst,
		"-timeout", "60s", "-spec", collectSpec)

	if err := run([]string{"cast", "-addr", addr, "-file", src, "-spec", castSpec}); err != nil {
		t.Fatalf("cast: %v", err)
	}
	if err := wait(); err != nil {
		t.Fatalf("collect: %v", err)
	}
	got, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatalf("collected %d bytes differ from cast %d bytes", len(got), len(content))
	}
}

func TestCastRejectsBadSpec(t *testing.T) {
	for _, spec := range []string{
		"codec=bogus(k=3)",
		"codec=rse(k=64),shed=tx4",
		"rate=abc",
	} {
		if err := run([]string{"cast", "-file", "-", "-spec", spec}); err == nil {
			t.Errorf("cast -spec %q succeeded, want error", spec)
		}
	}
}

func TestSendRejectsOversizedObjectID(t *testing.T) {
	if err := run([]string{"send", "-file", "x", "-object", "4294967297"}); err == nil {
		t.Fatal("object ID > uint32 accepted")
	}
}

// TestRecvFailedSaveIsAnError: a decoded object that cannot be written
// to disk must fail the whole recv, not exit 0.
func TestRecvFailedSaveIsAnError(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "p.bin")
	if err := os.WriteFile(file, bytes.Repeat([]byte("x"), 20000), 0o644); err != nil {
		t.Fatal(err)
	}
	addr, wait := startListener(t, "recv", "-out", "/nonexistent-dir-for-sure",
		"-count", "1", "-timeout", "30s", "-stats", "0")
	if err := run([]string{"send", "-addr", addr, "-file", file,
		"-rate", "4000", "-rounds", "5"}); err != nil {
		t.Fatalf("send: %v", err)
	}
	if wait() == nil {
		t.Fatal("recv exited success although the object was never saved")
	}
}
