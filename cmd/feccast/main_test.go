package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"fecperf"
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
	// A readable file, so each case fails on its spec or flag alone.
	file := filepath.Join(t.TempDir(), "p.bin")
	if err := os.WriteFile(file, []byte("payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		want string // in the error
	}{
		{nil, "usage"},
		{[]string{"bogus"}, "unknown subcommand"},
		{[]string{"send"}, "-file is required"},
		{[]string{"send", "-file", file, "-spec", "codec=not-a-code"}, "not-a-code"},
		{[]string{"send", "-file", file, "-spec", "sched=tx9"}, "tx9"},
		// The settings are spec keys now; their old flags are gone.
		{[]string{"send", "-file", file, "-rounds", "3"}, "flag provided but not defined"},
		{[]string{"cast", "-file", file, "-batch", "8"}, "flag provided but not defined"},
		{[]string{"collect", "-out", file, "-metrics", ":0"}, "flag provided but not defined"},
	} {
		if err := run(c.args); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%q) = %v, want an error containing %q", c.args, err, c.want)
		}
	}
}

// captureConn is a send-only endpoint keeping a copy of every datagram,
// in order.
type captureConn struct{ sent [][]byte }

func (c *captureConn) WriteBatch(batch [][]byte) (int, error) {
	for _, d := range batch {
		c.sent = append(c.sent, bytes.Clone(d))
	}
	return len(batch), nil
}
func (c *captureConn) Send(d []byte) error             { _, err := c.WriteBatch([][]byte{d}); return err }
func (c *captureConn) ReadBatch([][]byte) (int, error) { return 0, fecperf.ErrTransportClosed }
func (c *captureConn) Recv([]byte) (int, error)        { return 0, fecperf.ErrTransportClosed }
func (c *captureConn) SetReadDeadline(time.Time) error { return nil }
func (c *captureConn) Close() error                    { return nil }
func (c *captureConn) LocalAddr() string               { return "capture" }

func streamSum(datagrams [][]byte) string {
	h := sha256.New()
	for _, d := range datagrams {
		fmt.Fprintf(h, "%d:", len(d))
		h.Write(d)
	}
	return fmt.Sprintf("%x (%d datagrams)", h.Sum(nil)[:8], len(datagrams))
}

// sendStream is what `feccast send -spec specLine` puts on the air for
// data in its first two carousel rounds, unpaced.
func sendStream(t *testing.T, data []byte, specLine string) [][]byte {
	t.Helper()
	opts := sendOptions(specLine)
	cfg, err := fecperf.NewConfig(opts...)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := fecperf.NewObject(data, opts...)
	if err != nil {
		t.Fatal(err)
	}
	bc := carouselConfig(cfg)
	bc.Rate, bc.Rounds = 0, 2
	conn := &captureConn{}
	s := fecperf.NewBroadcaster(conn, bc)
	if err := s.Add(obj); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return conn.sent
}

// sendTestFile is the fixed file the send stream pins are taken on.
var sendTestFile = bytes.Repeat([]byte("feccast send, default flags. "), 3000)

// TestSendDefaultStreamPinned pins `feccast send`'s default datagram
// stream for a fixed file. The sums were recorded when send's defaults
// were ten flags of their own (-code, -ratio, -tx, -rate, -seed,
// -object, ...): sendDefaults, one spec line, puts the same bytes on
// the air in the same order. `-spec seed=7` is the one deliberate
// change: seed= now builds the code as well as ordering the packets,
// exactly as the old `-seed 7` flag did, where before the flags pinned
// the construction seed at 1.
func TestSendDefaultStreamPinned(t *testing.T) {
	for line, want := range map[string]string{
		"":       "c6657624984bb452 (426 datagrams)",
		"seed=7": "fb2765920e127d87 (426 datagrams)", // the old `-seed 7`
	} {
		if got := streamSum(sendStream(t, sendTestFile, line)); got != want {
			t.Errorf("send -spec %q:\n  got  %s\n  want %s", line, got, want)
		}
	}
}

// TestSendSpecSeedBuildsTheCode: `-spec seed=7` builds the object the
// library builds from the defaults line with seed=7 in it, and its
// datagrams carry construction seed 7.
func TestSendSpecSeedBuildsTheCode(t *testing.T) {
	frames := func(opts ...fecperf.Option) [][]byte {
		obj, err := fecperf.NewObject(sendTestFile, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer obj.Close()
		out := make([][]byte, obj.N())
		for id := range out {
			d, err := obj.Datagram(id)
			if err != nil {
				t.Fatal(err)
			}
			out[id] = bytes.Clone(d)
		}
		return out
	}
	// A line may name a key once, so the defaults' seed=1 becomes seed=7.
	line := strings.Replace(sendDefaults, "seed=1", "seed=7", 1)
	if line == sendDefaults {
		t.Fatalf("sendDefaults %q has no seed=1", sendDefaults)
	}
	cli := frames(sendOptions("seed=7")...)
	lib := frames(fecperf.WithSpec(line))
	if !slices.EqualFunc(cli, lib, bytes.Equal) {
		t.Errorf("send -spec seed=7 and NewObject(WithSpec(%q)) differ", line)
	}
	p, err := fecperf.DecodeWirePacket(cli[0])
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || p.ObjectID != 1 {
		t.Errorf("datagram carries seed %d object %d, want construction seed 7, object 1", p.Seed, p.ObjectID)
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
		"-spec", "object=3,codec=ldgm-staircase(ratio=2),rate=4000,rounds=5,sched=tx4"}); err != nil {
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
	if err := run([]string{"send", "-file", "x", "-spec", "object=4294967297"}); err == nil || !strings.Contains(err.Error(), "object") {
		t.Fatalf("object ID > uint32: err = %v, want the object key's range error", err)
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
		"-spec", "rate=4000,rounds=5"}); err != nil {
		t.Fatalf("send: %v", err)
	}
	if wait() == nil {
		t.Fatal("recv exited success although the object was never saved")
	}
}
