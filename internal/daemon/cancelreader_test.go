package daemon

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"fecperf/internal/symbol"
)

// TestCancelReaderReusesOneBuffer reads a 4 MiB source the way a caster
// does — sequential reads of 64 KiB stage pieces — and checks that the
// reader reads through one pool buffer, not one buffer per Read (which
// used to be two fifths of a paced stream cast's allocation), that no
// read after the first allocates at all, that the bytes still come
// through intact, and that release hands the buffer back.
func TestCancelReaderReusesOneBuffer(t *testing.T) {
	const chunk, chunks = 64 << 10, 64
	data := testData(chunk*chunks, 3)
	start := symbol.PoolStats().Live
	r := newCancelReader(context.Background(), bytes.NewReader(data))
	p := make([]byte, chunk)
	got := make([]byte, 0, len(data))
	read := func() {
		n, err := io.ReadFull(r, p)
		got = append(got, p[:n]...)
		if err != nil {
			t.Fatal(err)
		}
	}
	read()
	if allocs := testing.AllocsPerRun(chunks-2, read); !raceEnabled && allocs != 0 {
		t.Fatalf("reads after the first allocate %.1f times each, want 0", allocs)
	}
	if n, err := io.ReadFull(r, p); n != 0 || !errors.Is(err, io.EOF) {
		t.Fatalf("read past the end = %d, %v; want 0, EOF", n, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("bytes read through the cancelReader differ from the source")
	}
	if live := symbol.PoolStats().Live - start; live != 1 {
		t.Fatalf("%d pool buffers out while reading, want the reader's one", live)
	}
	r.release()
	if live := symbol.PoolStats().Live - start; live != 0 {
		t.Fatalf("%d pool buffers still out after release", live)
	}
}

// TestCancelReaderAbandonedRead: a read abandoned by cancellation keeps
// its buffer to itself — the caller's p is never written after Read
// returned — and the reader is dead afterwards. When the source finally
// returns, the abandoned read puts the buffer back in the pool.
func TestCancelReaderAbandonedRead(t *testing.T) {
	entered, release, finished := make(chan struct{}), make(chan struct{}), make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	start := symbol.PoolStats().Live
	r := newCancelReader(ctx, readerFunc(func(p []byte) (int, error) {
		close(entered)
		<-release
		for i := range p {
			p[i] = 0xff
		}
		close(finished)
		return len(p), nil
	}))
	defer r.release()
	p := make([]byte, 1024)
	go func() {
		<-entered // the inner read is parked in the source
		cancel()
	}()
	if _, err := r.Read(p); !errors.Is(err, context.Canceled) {
		t.Fatalf("Read cancelled while the source hangs = %v, want context.Canceled", err)
	}
	close(release)
	<-finished // the abandoned read has filled its buffer
	if _, err := r.Read(p); !errors.Is(err, context.Canceled) {
		t.Fatalf("Read after an abandoned read = %v, want context.Canceled", err)
	}
	for _, b := range p {
		if b != 0 {
			t.Fatal("the caller's buffer was written by an abandoned read")
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for symbol.PoolStats().Live != start && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if live := symbol.PoolStats().Live - start; live != 0 {
		t.Fatalf("%d pool buffers still out after the abandoned read returned", live)
	}
}

// TestCancelReaderCancelRacesRead: whichever of the source's return and
// the cancellation Read sees first, the buffer goes back to the pool
// exactly once — by release, or by the abandoned read.
func TestCancelReaderCancelRacesRead(t *testing.T) {
	start := symbol.PoolStats().Live
	for i := range 200 {
		ctx, cancel := context.WithCancel(context.Background())
		r := newCancelReader(ctx, readerFunc(func(p []byte) (int, error) {
			cancel()
			time.Sleep(time.Duration(i%3) * 20 * time.Microsecond) // 0: the read mostly wins
			return len(p), nil
		}))
		r.Read(make([]byte, 512)) //nolint:errcheck // either outcome is right
		r.release()
	}
	deadline := time.Now().Add(5 * time.Second)
	for symbol.PoolStats().Live != start && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if live := symbol.PoolStats().Live - start; live != 0 {
		t.Fatalf("%d pool buffers out after the reads returned, want 0", live)
	}
}

type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }
