//go:build !(linux && (amd64 || arm64))

package transport

import (
	"bytes"
	"testing"
	"time"

	"fecperf/internal/wire"
)

// TestUDPFallbackBatchContract proves the portable (non-mmsg) UDP batch
// path satisfies the Conn batch contract: WriteBatch delivers the whole
// batch in order, ReadBatch blocks for at least one datagram and
// re-slices what it fills, and GSO and GRO are reported off. It runs only on
// platforms without the Linux sendmmsg datapath — the cross-compile CI
// steps keep it building, and any non-Linux `go test` exercises it.
func TestUDPFallbackBatchContract(t *testing.T) {
	rx, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	defer rx.Close()
	tx, err := DialUDP(rx.LocalAddr())
	if err != nil {
		t.Fatalf("DialUDP: %v", err)
	}
	defer tx.Close()

	if tx.(interface{ GSOEnabled() bool }).GSOEnabled() {
		t.Fatal("portable fallback must report GSO disabled")
	}
	if rx.(interface{ GROEnabled() bool }).GROEnabled() {
		t.Fatal("portable fallback must report GRO disabled")
	}
	batch := make([]wire.Datagram, 40)
	for i := range batch {
		batch[i] = bytes.Repeat([]byte{byte(i)}, 200)
	}
	if n, err := tx.WriteBatch(batch); n != len(batch) || err != nil {
		t.Fatalf("WriteBatch = %d, %v; want %d, nil", n, err, len(batch))
	}
	rx.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	got := 0
	for got < len(batch) {
		bufs := make([]wire.Datagram, 8)
		for i := range bufs {
			bufs[i] = make([]byte, 1024)
		}
		m, err := rx.ReadBatch(bufs)
		if err != nil {
			t.Fatalf("ReadBatch after %d: %v", got, err)
		}
		if m == 0 {
			t.Fatal("ReadBatch returned 0 with nil error")
		}
		for i := 0; i < m; i++ {
			if !bytes.Equal(bufs[i], batch[got+i]) {
				t.Fatalf("datagram %d corrupted or reordered", got+i)
			}
		}
		got += m
	}
}
