package daemon

import (
	"bytes"
	"context"
	"errors"
	"io"
	"runtime"
	"testing"
)

// TestCancelReaderReusesOneBuffer reads a 4 MiB source the way a caster
// does — sequential full-chunk reads — and checks that the reader's
// private buffer is allocated once, not once per Read (which used to be
// two fifths of a paced stream cast's allocation), and that the bytes
// still come through intact.
func TestCancelReaderReusesOneBuffer(t *testing.T) {
	const chunk, chunks = 64 << 10, 64
	data := testData(chunk*chunks, 3)
	r := newCancelReader(context.Background(), bytes.NewReader(data))
	p := make([]byte, chunk)
	got := make([]byte, 0, len(data))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for {
		n, err := io.ReadFull(r, p)
		got = append(got, p[:n]...)
		if err != nil {
			if !errors.Is(err, io.EOF) {
				t.Fatal(err)
			}
			break
		}
	}
	runtime.ReadMemStats(&after)
	if !bytes.Equal(got, data) {
		t.Fatal("bytes read through the cancelReader differ from the source")
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 2*chunk {
		t.Fatalf("%d reads allocated %d bytes, want about one %d-byte buffer", chunks, grown, chunk)
	}
}

// TestCancelReaderAbandonedRead: a read abandoned by cancellation keeps
// its buffer to itself — the caller's p is never written after Read
// returned — and the reader is dead afterwards.
func TestCancelReaderAbandonedRead(t *testing.T) {
	entered, release, finished := make(chan struct{}), make(chan struct{}), make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	r := newCancelReader(ctx, readerFunc(func(p []byte) (int, error) {
		close(entered)
		<-release
		for i := range p {
			p[i] = 0xff
		}
		close(finished)
		return len(p), nil
	}))
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
}

type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }
