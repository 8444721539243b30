package daemon

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"fecperf/internal/channel"
	"fecperf/internal/codes"
	"fecperf/internal/obs"
	"fecperf/internal/session"
	"fecperf/internal/transport"
	"fecperf/internal/wire"
)

// testHubs is a Dial fabric: one loopback hub per destination group, so
// each cast's receivers see only their group's traffic — the in-process
// equivalent of distinct multicast groups.
type testHubs struct {
	mu   sync.Mutex
	hubs map[string]*transport.Loopback
}

func newTestHubs() *testHubs {
	return &testHubs{hubs: make(map[string]*transport.Loopback)}
}

func (h *testHubs) hub(addr string) *transport.Loopback {
	h.mu.Lock()
	defer h.mu.Unlock()
	hub, ok := h.hubs[addr]
	if !ok {
		hub = transport.NewLoopback()
		h.hubs[addr] = hub
	}
	return hub
}

func (h *testHubs) dial(addr string) (transport.Conn, error) {
	return h.hub(addr).Sender(), nil
}

func (h *testHubs) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, hub := range h.hubs {
		hub.Close()
	}
}

func testData(size int, seed int64) []byte {
	data := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

// waitStatus polls a cast's status until cond holds or the deadline
// passes.
func waitStatus(t *testing.T, d *Daemon, name string, what string, cond func(CastStatus) bool) CastStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := d.CastStatus(name)
		if ok && cond(st) {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	st, _ := d.CastStatus(name)
	t.Fatalf("cast %s never reached %s; last status %+v", name, what, st)
	return CastStatus{}
}

// TestDaemonE2E is the subsystem acceptance scenario: three concurrent
// casts (two file carousels and one 2 MiB stream) multiplexed over one
// shared pacer and per-group loopback conns; one carousel's ratio is
// hot-reloaded mid-carousel; then a graceful drain. Every collector
// must verify its bytes end to end (SHA-256), and the drain must lose
// no in-flight round — the untouched carousel's packet count divides
// exactly into whole rounds.
func TestDaemonE2E(t *testing.T) {
	const (
		addrA = "239.0.0.1:9000"
		addrB = "239.0.0.2:9000"
		addrC = "239.0.0.3:9000"
	)
	hubs := newTestHubs()
	defer hubs.close()

	dataA := testData(32<<10, 1)
	dataB := testData(48<<10, 2)
	streamData := testData(2<<20, 3)

	// Receivers attach before the casts start so round one is observed
	// whole (late join works too, but the drain-integrity assertion
	// wants exact counts).
	rxA := transport.NewReceiverDaemon(hubs.hub(addrA).Receiver(channel.NoLoss{}, 1<<16), transport.ReceiverConfig{})
	rxB := transport.NewReceiverDaemon(hubs.hub(addrB).Receiver(channel.NoLoss{}, 1<<16), transport.ReceiverConfig{})
	var streamOut bytes.Buffer
	collector := transport.NewCollector(hubs.hub(addrC).Receiver(channel.NoLoss{}, 1<<16), &streamOut,
		transport.CollectorConfig{BaseObjectID: 100})

	rxCtx, rxCancel := context.WithCancel(context.Background())
	defer rxCancel()
	var rxWG sync.WaitGroup
	collectErr := make(chan error, 1)
	rxWG.Add(3)
	go func() { defer rxWG.Done(); rxA.Run(rxCtx) }() //nolint:errcheck
	go func() { defer rxWG.Done(); rxB.Run(rxCtx) }() //nolint:errcheck
	go func() { defer rxWG.Done(); collectErr <- collector.Run(rxCtx) }()

	reg := obs.NewRegistry("fecperf")
	d := New(Config{
		Rate:         400_000,
		BatchSize:    16,
		DrainTimeout: 20 * time.Second,
		Metrics:      reg,
		Dial:         hubs.dial,
	})
	defer d.Close()

	specA := CastSpec{Name: "alpha", Addr: addrA, Delivery: transport.Delivery{BaseObjectID: 1, Seed: 11}, Data: dataA}
	specB := CastSpec{Name: "beta", Addr: addrB, Delivery: transport.Delivery{BaseObjectID: 2, Seed: 22}, Data: dataB}
	specC := CastSpec{
		Name: "gamma", Addr: addrC, Mode: ModeStream, Delivery: transport.Delivery{BaseObjectID: 100, Seed: 33},
		Weight: 2, Source: bytes.NewReader(streamData),
	}
	for _, cs := range []CastSpec{specA, specB, specC} {
		if err := d.AddCast(cs); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.AddCast(specA); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Errorf("duplicate AddCast = %v, want already-exists error", err)
	}

	// Let both carousels complete a few rounds before touching anything.
	waitStatus(t, d, "alpha", "2 rounds", func(st CastStatus) bool { return st.Rounds >= 2 })
	waitStatus(t, d, "beta", "2 rounds", func(st CastStatus) bool { return st.Rounds >= 2 })

	// Hot reload: an immutable-key change is rejected with a diff error...
	badSpec := specB
	badSpec.PayloadSize = 512
	if err := d.Reload("beta", badSpec); err == nil || !strings.Contains(err.Error(), "immutable keys changed") {
		t.Fatalf("immutable reload = %v, want diff error", err)
	}
	// ...and a ratio change applies at the next round boundary.
	newSpec := specB
	newSpec.Codec.Family = "rse"
	newSpec.Codec.Ratio = 2.0
	newSpec.Weight = 3
	if err := d.Reload("beta", newSpec); err != nil {
		t.Fatal(err)
	}
	reloaded := waitStatus(t, d, "beta", "reload applied", func(st CastStatus) bool { return st.Reloads >= 1 })
	if reloaded.Weight != 3 {
		t.Errorf("beta weight after reload = %g, want 3", reloaded.Weight)
	}
	// The reloaded carousel keeps serving (more rounds at the new ratio).
	postReload := waitStatus(t, d, "beta", "post-reload rounds", func(st CastStatus) bool {
		return st.Rounds >= reloaded.Rounds+2
	})
	if postReload.State != StateRunning {
		t.Errorf("beta state after reload = %s, want %s", postReload.State, StateRunning)
	}

	// The stream is finite; wait for its manifest to go out.
	waitStatus(t, d, "gamma", "stream completion", func(st CastStatus) bool { return st.State == StateDone })

	// Graceful drain: carousels finish their in-flight round, nothing is
	// hard-cancelled.
	drainCtx, drainCancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer drainCancel()
	if err := d.Drain(drainCtx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := d.Casts(); len(got) != 0 {
		t.Errorf("casts after drain: %+v, want none", got)
	}
	if err := d.AddCast(specA); err == nil {
		t.Error("AddCast after drain succeeded, want refusal")
	}

	// Drain integrity: alpha was never reloaded, so every packet it sent
	// belongs to a whole round of its one object — the count divides
	// exactly.
	alphaObj, err := session.EncodeObject(dataA, session.SenderConfig{
		ObjectID: 1, Family: wire.CodeRSE, Ratio: 1.5, PayloadSize: 1024,
		Seed: 0, // geometry only; n does not depend on the seed
	})
	if err != nil {
		t.Fatal(err)
	}
	perRound := uint64(alphaObj.N())
	alphaObj.Close()
	alphaStats, _ := reg.CounterValue("daemon_cast_packets_total", obs.L("cast", "alpha"))
	alphaRounds, _ := reg.CounterValue("daemon_cast_rounds_total", obs.L("cast", "alpha"))
	if alphaStats == 0 || alphaStats%perRound != 0 {
		t.Errorf("alpha sent %d packets, not a whole multiple of its %d-packet rounds — drain chopped a round", alphaStats, perRound)
	}
	if alphaStats != alphaRounds*perRound {
		t.Errorf("alpha packets %d != rounds %d × %d — round accounting drifted", alphaStats, alphaRounds, perRound)
	}

	// End-to-end integrity: every receiver reconstructs its bytes.
	waitCtx, waitCancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer waitCancel()
	gotA, err := rxA.WaitObject(waitCtx, 1)
	if err != nil {
		t.Fatalf("alpha receiver: %v", err)
	}
	gotB, err := rxB.WaitObject(waitCtx, 2)
	if err != nil {
		t.Fatalf("beta receiver: %v", err)
	}
	if sha256.Sum256(gotA) != sha256.Sum256(dataA) {
		t.Error("alpha bytes corrupt")
	}
	if sha256.Sum256(gotB) != sha256.Sum256(dataB) {
		t.Error("beta bytes corrupt")
	}
	select {
	case err := <-collectErr:
		if err != nil {
			t.Fatalf("stream collector: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("stream collector never finished")
	}
	if sha256.Sum256(streamOut.Bytes()) != sha256.Sum256(streamData) {
		t.Errorf("stream bytes corrupt (%d bytes collected, want %d)", streamOut.Len(), len(streamData))
	}

	// Labeled per-cast metrics exist for every cast.
	for _, name := range []string{"alpha", "beta", "gamma"} {
		if v, ok := reg.CounterValue("daemon_cast_packets_total", obs.L("cast", name)); !ok || v == 0 {
			t.Errorf("daemon_cast_packets_total{cast=%s} = %d, %t — per-cast series missing", name, v, ok)
		}
	}
	if v, _ := reg.CounterValue("daemon_reloads_total", nil); v != 1 {
		t.Errorf("daemon_reloads_total = %d, want 1", v)
	}
	if v, _ := reg.CounterValue("daemon_drains_total", nil); v != 1 {
		t.Errorf("daemon_drains_total = %d, want 1", v)
	}

	rxCancel()
	rxWG.Wait()
}

// TestDaemonObjectLifecycle adds and removes carousel objects
// mid-stream: both changes land at round boundaries and the carousel's
// deterministic resume keeps serving the remaining objects.
func TestDaemonObjectLifecycle(t *testing.T) {
	const addr = "239.0.0.9:9000"
	hubs := newTestHubs()
	defer hubs.close()
	rx := transport.NewReceiverDaemon(hubs.hub(addr).Receiver(channel.NoLoss{}, 1<<16), transport.ReceiverConfig{})
	rxCtx, rxCancel := context.WithCancel(context.Background())
	defer rxCancel()
	go rx.Run(rxCtx) //nolint:errcheck

	d := New(Config{Rate: 300_000, BatchSize: 16, DrainTimeout: 10 * time.Second, Dial: hubs.dial})
	defer d.Close()

	first := testData(16<<10, 4)
	second := testData(24<<10, 5)
	if err := d.AddCast(CastSpec{Name: "multi", Addr: addr, Delivery: transport.Delivery{BaseObjectID: 10, Seed: 44}, Data: first}); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, d, "multi", "1 round", func(st CastStatus) bool { return st.Rounds >= 1 })

	// A second object joins the carousel at the next round boundary.
	if err := d.AddObject("multi", 11, second); err != nil {
		t.Fatal(err)
	}
	if err := d.AddObject("multi", 11, second); err == nil {
		t.Error("duplicate AddObject accepted")
	}
	waitStatus(t, d, "multi", "2 objects", func(st CastStatus) bool { return st.Objects == 2 })

	waitCtx, waitCancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer waitCancel()
	got1, err := rx.WaitObject(waitCtx, 10)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := rx.WaitObject(waitCtx, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got1, first) || !bytes.Equal(got2, second) {
		t.Error("reconstructed objects differ from their sources")
	}

	// Removing the first object leaves the carousel serving the second.
	if err := d.RemoveObject("multi", 10); err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveObject("multi", 99); err == nil {
		t.Error("RemoveObject of an absent id accepted")
	}
	st := waitStatus(t, d, "multi", "1 object", func(st CastStatus) bool { return st.Objects == 1 })
	if st.State != StateRunning {
		t.Errorf("state after removal = %s, want %s", st.State, StateRunning)
	}

	// Removing the last object idles the cast; a re-add revives it.
	if err := d.RemoveObject("multi", 11); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, d, "multi", "0 objects", func(st CastStatus) bool { return st.Objects == 0 })
	roundsIdle := mustStatus(t, d, "multi").Rounds
	if err := d.AddObject("multi", 12, first); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, d, "multi", "revival", func(st CastStatus) bool { return st.Rounds > roundsIdle })

	if err := d.RemoveCast("multi"); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.CastStatus("multi"); ok {
		t.Error("cast still listed after RemoveCast")
	}
}

func mustStatus(t *testing.T, d *Daemon, name string) CastStatus {
	t.Helper()
	st, ok := d.CastStatus(name)
	if !ok {
		t.Fatalf("no cast %s", name)
	}
	return st
}

// TestDaemonSharedConnRefcount verifies casts with one destination
// group share a single socket, released with the last cast.
func TestDaemonSharedConnRefcount(t *testing.T) {
	const addr = "239.0.0.8:9000"
	hubs := newTestHubs()
	defer hubs.close()
	dials := 0
	d := New(Config{BatchSize: 8, DrainTimeout: 5 * time.Second, Dial: func(a string) (transport.Conn, error) {
		dials++
		return hubs.dial(a)
	}})
	defer d.Close()

	if err := d.AddCast(CastSpec{Name: "one", Addr: addr, Delivery: transport.Delivery{BaseObjectID: 1}, Data: testData(4<<10, 6)}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddCast(CastSpec{Name: "two", Addr: addr, Delivery: transport.Delivery{BaseObjectID: 2}, Data: testData(4<<10, 7)}); err != nil {
		t.Fatal(err)
	}
	if dials != 1 {
		t.Errorf("dials = %d for two same-group casts, want 1 shared socket", dials)
	}
	if err := d.RemoveCast("one"); err != nil {
		t.Fatal(err)
	}
	if err := d.AddCast(CastSpec{Name: "three", Addr: addr, Delivery: transport.Delivery{BaseObjectID: 3}, Data: testData(4<<10, 8)}); err != nil {
		t.Fatal(err)
	}
	if dials != 1 {
		t.Errorf("dials = %d while the group socket was still held, want 1", dials)
	}
	if err := d.RemoveCast("two"); err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveCast("three"); err != nil {
		t.Fatal(err)
	}
	// Last cast gone: the next add re-dials.
	if err := d.AddCast(CastSpec{Name: "four", Addr: addr, Delivery: transport.Delivery{BaseObjectID: 4}, Data: testData(4<<10, 9)}); err != nil {
		t.Fatal(err)
	}
	if dials != 2 {
		t.Errorf("dials = %d after the group emptied and refilled, want 2", dials)
	}
}

// TestDaemonDrainDeadline hard-cancels a cast that cannot reach a
// consistency point before the drain deadline.
func TestDaemonDrainDeadline(t *testing.T) {
	hubs := newTestHubs()
	defer hubs.close()
	// A never-finishing stream: the reader blocks forever after 64 KiB.
	blocked := make(chan struct{})
	t.Cleanup(func() { close(blocked) })
	src := &blockingReader{data: testData(64<<10, 10), blocked: blocked}
	d := New(Config{BatchSize: 8, DrainTimeout: 300 * time.Millisecond, Dial: hubs.dial})
	defer d.Close()
	if err := d.AddCast(CastSpec{Name: "stuck", Addr: "g:1", Mode: ModeStream, Delivery: transport.Delivery{BaseObjectID: 50}, Source: src}); err != nil {
		t.Fatal(err)
	}
	err := d.Drain(context.Background())
	if err == nil || !strings.Contains(err.Error(), "hard-cancelled casts [stuck]") {
		t.Fatalf("Drain = %v, want hard-cancel report naming the stuck cast", err)
	}
	select {
	case <-d.Drained():
	default:
		t.Error("Drained() channel not closed after Drain returned")
	}
}

// TestDaemonDrainDeadlineMultipleStragglers drains three casts that
// all blow the deadline. The deadline timer fires only once for the
// whole drain, so every cast still running past it must be
// hard-cancelled — a regression test for Drain hanging forever on the
// second straggler after the single-fire timer channel was consumed.
// It also checks that RemoveCast is refused mid-drain: the drain owns
// every cast's teardown, so a concurrent remove must not double-release
// the shared group socket.
func TestDaemonDrainDeadlineMultipleStragglers(t *testing.T) {
	hubs := newTestHubs()
	defer hubs.close()
	blocked := make(chan struct{})
	t.Cleanup(func() { close(blocked) })
	d := New(Config{BatchSize: 8, DrainTimeout: 300 * time.Millisecond, Dial: hubs.dial})
	defer d.Close()
	for i, name := range []string{"stuck-a", "stuck-b", "stuck-c"} {
		src := &blockingReader{data: testData(64<<10, int64(20+i)), blocked: blocked}
		if err := d.AddCast(CastSpec{Name: name, Addr: "g:1", Mode: ModeStream, Delivery: transport.Delivery{BaseObjectID: uint32(60 + i)}, Source: src}); err != nil {
			t.Fatal(err)
		}
	}
	drainErr := make(chan error, 1)
	go func() { drainErr <- d.Drain(context.Background()) }()
	for !d.Draining() {
		time.Sleep(time.Millisecond)
	}
	if err := d.RemoveCast("stuck-b"); err == nil {
		t.Error("RemoveCast mid-drain succeeded, want refusal")
	}
	select {
	case err := <-drainErr:
		if err == nil || !strings.Contains(err.Error(), "[stuck-a stuck-b stuck-c]") {
			t.Fatalf("Drain = %v, want hard-cancel report naming all three stuck casts", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Drain hung past the deadline with multiple stragglers")
	}
}

type blockingReader struct {
	data    []byte
	blocked chan struct{}
}

func (b *blockingReader) Read(p []byte) (int, error) {
	if len(b.data) == 0 {
		<-b.blocked
		return 0, fmt.Errorf("stream source torn down")
	}
	n := copy(p, b.data)
	b.data = b.data[n:]
	return n, nil
}

// TestLiteralSpecsAreValidated: AddCast and Reload hold a Go literal to
// what ParseCastSpec holds a line — a bad value is an error, never a
// silently different cast (a negative payload used to run at 1024).
func TestLiteralSpecsAreValidated(t *testing.T) {
	hubs := newTestHubs()
	defer hubs.close()
	d := New(Config{Dial: hubs.dial})
	defer d.Close()

	data := testData(4<<10, 1)
	for _, bad := range []transport.Delivery{
		{PayloadSize: -1}, {BatchSize: -2}, {Window: -1}, {Rounds: -1}, {NSent: -5},
		{Codec: codes.Spec{Family: "rot13"}}, {Codec: codes.Spec{Family: "rse", Ratio: 0.5}},
	} {
		for _, mode := range []string{ModeCarousel, ModeStream} {
			cs := CastSpec{Name: "bad", Addr: "g:1", Mode: mode, Data: data, Source: bytes.NewReader(data), Delivery: bad}
			if err := d.AddCast(cs); err == nil {
				t.Errorf("AddCast(%s, %+v) succeeded", mode, bad)
				d.RemoveCast("bad") //nolint:errcheck
			}
		}
	}
	if n := len(d.Casts()); n != 0 {
		t.Fatalf("%d casts registered by rejected specs", n)
	}

	good := CastSpec{Name: "ok", Addr: "g:1", Data: data, Delivery: transport.Delivery{BaseObjectID: 3}}
	if err := d.AddCast(good); err != nil {
		t.Fatal(err)
	}
	next := good
	next.NSent = -1
	if err := d.Reload("ok", next); err == nil || !strings.Contains(err.Error(), "nsent must not be negative") {
		t.Errorf("Reload with nsent=-1: %v", err)
	}
}

// TestDaemonCarouselObjectAcrossRSBlocks casts whole files as one RS
// object each — what a carousel cast does — at sizes whose (k, n) a
// receiver used to be unable to turn back into the sender's blocks:
// k = 339 at the default ratio 1.5 (n = 509) and k = 304 at ratio 2.5.
// OpenReassembly refused every datagram of both and the receiver counted
// each as bad; now the bytes arrive and nothing is dropped as bad.
func TestDaemonCarouselObjectAcrossRSBlocks(t *testing.T) {
	if transport.DefaultPayloadSize != 1024 {
		t.Fatalf("the sizes below are k = 339 and 304 at 1024-byte symbols, not at %d", transport.DefaultPayloadSize)
	}
	for i, c := range []struct {
		size int
		line string
	}{
		{347_128, "name=default,addr=239.0.0.7:9000,object=70"},
		{311_288, "name=wide,addr=239.0.0.8:9000,object=71,codec=rse(ratio=2.5)"},
	} {
		cs, err := ParseCastSpec(c.line)
		if err != nil {
			t.Fatal(err)
		}
		cs.Data = testData(c.size, int64(20+i))
		t.Run(cs.Name, func(t *testing.T) {
			hubs := newTestHubs()
			defer hubs.close()
			reg := obs.NewRegistry("fecperf")
			rx := transport.NewReceiverDaemon(hubs.hub(cs.Addr).Receiver(channel.NoLoss{}, 1<<16), transport.ReceiverConfig{Metrics: reg})
			rxCtx, rxCancel := context.WithCancel(context.Background())
			defer rxCancel()
			go rx.Run(rxCtx) //nolint:errcheck

			d := New(Config{Rate: 300_000, BatchSize: 16, DrainTimeout: 10 * time.Second, Dial: hubs.dial})
			defer d.Close()
			if err := d.AddCast(cs); err != nil {
				t.Fatal(err)
			}
			waitCtx, waitCancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer waitCancel()
			got, err := rx.WaitObject(waitCtx, cs.BaseObjectID)
			if err != nil {
				t.Errorf("%v (receiver stats %+v)", err, rx.Stats())
			} else if !bytes.Equal(got, cs.Data) {
				t.Error("the received object differs from the one cast")
			}
			if bad, ok := reg.CounterValue("receiver_packets_dropped_total", obs.L("reason", "bad")); !ok || bad != 0 {
				t.Errorf("receiver_packets_dropped_total{reason=\"bad\"} = %d (registered: %v), want 0", bad, ok)
			}
		})
	}
}
