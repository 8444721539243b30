package fecperf

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// captureConn is a send-only endpoint that keeps a copy of every
// datagram, in order.
type captureConn struct {
	mu   sync.Mutex
	sent [][]byte
}

func (c *captureConn) WriteBatch(batch [][]byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, d := range batch {
		c.sent = append(c.sent, bytes.Clone(d))
	}
	return len(batch), nil
}
func (c *captureConn) ReadBatch([][]byte) (int, error) { return 0, ErrTransportClosed }
func (c *captureConn) Recv([]byte) (int, error)        { return 0, ErrTransportClosed }
func (c *captureConn) SetReadDeadline(time.Time) error { return nil }
func (c *captureConn) Close() error                    { return nil }
func (c *captureConn) LocalAddr() string               { return "capture" }
func (c *captureConn) datagrams() [][]byte             { c.mu.Lock(); defer c.mu.Unlock(); return c.sent }

func streamSum(datagrams [][]byte) string {
	h := sha256.New()
	for _, d := range datagrams {
		fmt.Fprintf(h, "%d:", len(d))
		h.Write(d)
	}
	return fmt.Sprintf("%x (%d datagrams)", h.Sum(nil)[:8], len(datagrams))
}

// castThroughFacade runs a whole cast of src under the options and
// returns what went on the wire.
func castThroughFacade(t *testing.T, src []byte, opts ...Option) [][]byte {
	t.Helper()
	conn := &captureConn{}
	caster, err := NewCaster(conn, bytes.NewReader(src), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := caster.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return conn.datagrams()
}

// castThroughDaemon runs the same cast as a feccastd stream cast.
func castThroughDaemon(t *testing.T, src []byte, line string) [][]byte {
	t.Helper()
	conn := &captureConn{}
	d := NewBroadcastDaemon(BroadcastDaemonConfig{
		Dial: func(string) (TransportConn, error) { return conn, nil },
	})
	defer d.Close()
	cs, err := ParseCastSpec("name=train,addr=group:1,mode=stream," + line)
	if err != nil {
		t.Fatal(err)
	}
	cs.Source = bytes.NewReader(src)
	if err := d.AddCast(cs); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		st, _ := d.CastStatus("train")
		if st.State == CastStateDone {
			return conn.datagrams()
		}
		if st.State == CastStateFailed || time.Now().After(deadline) {
			t.Fatalf("daemon cast of %q: %+v", line, st)
		}
	}
}

// TestSpecLineSameTrainEverywhere: one spec line is one datagram
// sequence — through NewCaster(WithSpec), through a feccastd stream
// cast, and through the option list `feccast cast` assembles (its -spec
// line plus the observability handles, absent here). It also
// pins which seed does what when both are given: codec=(seed=) builds
// the code (and rides in every chunk datagram), seed= orders the
// packets.
func TestSpecLineSameTrainEverywhere(t *testing.T) {
	src := make([]byte, 200<<10)
	rand.New(rand.NewSource(5)).Read(src)
	const rest = ",sched=tx4,payload=256,rounds=2,window=2,object=7,seed=3"
	lines := []string{
		"codec=rse(k=32,ratio=1.5)" + rest,
		"codec=ldgm-staircase(k=32,ratio=1.5,seed=7)" + rest,
		"codec=ldgm-triangle(k=32,seed=7)" + rest, // omitted ratio: one rule everywhere
	}
	for _, line := range lines {
		facade := castThroughFacade(t, src, WithSpec(line))
		daemon := castThroughDaemon(t, src, line)
		cli := castThroughFacade(t, src, WithSpec(line), WithMetrics(nil), WithTracer(nil))
		if a, b, c := streamSum(facade), streamSum(daemon), streamSum(cli); a != b || a != c {
			t.Errorf("%q:\n  NewCaster    %s\n  feccastd     %s\n  feccast cast %s", line, a, b, c)
		}
	}

	// ids is the (object, packet) order of a train's chunk datagrams and
	// the construction seeds they carry; sorted is their bytes, order
	// removed. The manifest (object 7) is left out: it is Reed-Solomon
	// whatever the chunks are.
	type id struct{ object, packet uint32 }
	chunks := func(datagrams [][]byte) (ids []id, seeds map[int64]bool, sorted [][]byte) {
		seeds = map[int64]bool{}
		for _, d := range datagrams {
			p, err := DecodeWirePacket(d)
			if err != nil {
				t.Fatal(err)
			}
			if p.ObjectID == 7 {
				continue
			}
			ids = append(ids, id{p.ObjectID, p.PacketID})
			seeds[p.Seed] = true
			sorted = append(sorted, d)
		}
		slices.SortFunc(sorted, bytes.Compare)
		return ids, seeds, sorted
	}
	ldgm := func(codecSeed, seed int) [][]byte {
		line := strings.NewReplacer("seed=7", fmt.Sprint("seed=", codecSeed), "seed=3", fmt.Sprint("seed=", seed)).Replace(lines[1])
		return castThroughFacade(t, src, WithSpec(line))
	}
	baseIDs, baseSeeds, baseBytes := chunks(ldgm(7, 3))
	if len(baseSeeds) != 1 || !baseSeeds[7] {
		t.Errorf("chunk datagrams carry construction seeds %v, want only the codec's 7", baseSeeds)
	}
	// Another cast seed: the same code, so the same datagrams, in another order.
	ids, _, sorted := chunks(ldgm(7, 4))
	if !slices.EqualFunc(sorted, baseBytes, bytes.Equal) {
		t.Error("seed= changed the chunk datagrams themselves: it must not reach code construction when codec=(seed=) is set")
	}
	if slices.Equal(ids, baseIDs) {
		t.Error("seed= did not change the packet order: it must drive scheduling")
	}
	// Another codec seed: another graph, sent in the same order.
	ids, _, sorted = chunks(ldgm(8, 3))
	if !slices.Equal(ids, baseIDs) {
		t.Error("codec=(seed=) changed the packet order: scheduling must follow seed= alone")
	}
	if slices.EqualFunc(sorted, baseBytes, bytes.Equal) {
		t.Error("codec=(seed=) did not change the chunk datagrams: it must build the code")
	}
}

// TestCastFrameStreamPinned pins the datagram sequence of the three
// bench cast specs — two full window groups, then one with a short last
// chunk and the manifest — through NewCaster and through a feccastd
// stream cast. The sums were recorded at commit 924dd6e, before the
// caster overlapped encoding with sending: what goes on the wire, and
// in what order, is not the pipeline's to change.
func TestCastFrameStreamPinned(t *testing.T) {
	src := make([]byte, 9<<18+1000)
	rand.New(rand.NewSource(11)).Read(src)
	for line, want := range map[string]string{
		"codec=rse(k=256,ratio=1.5),sched=tx4,payload=1024,rounds=1,window=4":                     "d9206dadda398a61 (3461 datagrams)",
		"codec=rse(k=256,ratio=1.5),sched=tx1,payload=1024,rounds=1,window=4":                     "fcc857e5a1e0982d (3461 datagrams)",
		"codec=ldgm-staircase(k=2048,ratio=1.5),sched=tx4,payload=128,rounds=1,window=4,batch=32": "11d1415446406877 (27664 datagrams)",
	} {
		if got := streamSum(castThroughFacade(t, src, WithSpec(line))); got != want {
			t.Errorf("%q through NewCaster:\n  got  %s\n  want %s", line, got, want)
		}
		if got := streamSum(castThroughDaemon(t, src, line)); got != want {
			t.Errorf("%q through feccastd:\n  got  %s\n  want %s", line, got, want)
		}
	}
}
