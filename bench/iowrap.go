package main

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"time"

	"fecperf/internal/core"
)

// input is one generated source stream and what the harness knows about
// it independently of the program: its cut into chunks and each chunk's
// CRC-32. A chunk is the unit of delivery (one FEC object of a train)
// and the benchmark's operation: attempted, verified, timed.
type input struct {
	data   []byte
	chunk  int      // stream bytes per chunk
	crcs   []uint32 // per chunk
	chunks int
}

// newInput fills chunks whole chunks of chunk bytes from a splitmix64
// stream seeded with seed. The program under test never sees the seed,
// only the bytes.
func newInput(seed int64, chunks, chunk int) *input {
	data := make([]byte, chunks*chunk)
	var rng core.SplitMixSource
	rng.Seed(seed)
	i := 0
	for ; i+8 <= len(data); i += 8 {
		binary.LittleEndian.PutUint64(data[i:], rng.Uint64())
	}
	for x := rng.Uint64(); i < len(data); i++ {
		data[i] = byte(x)
		x >>= 8
	}
	in := &input{data: data, chunk: chunk, chunks: chunks, crcs: make([]uint32, chunks)}
	for c := range in.crcs {
		in.crcs[c] = crc32.ChecksumIEEE(in.bytesOf(c))
	}
	return in
}

func (in *input) bytesOf(c int) []byte { return in.data[c*in.chunk : (c+1)*in.chunk] }

// source serves an input to the program and notes when each chunk's
// first byte left: the start of that chunk's latency.
type source struct {
	in     *input
	off    int
	starts []time.Time
	readNS int64
	tr     *tracer
}

func newSource(in *input) *source {
	return &source{in: in, starts: make([]time.Time, in.chunks)}
}

func (s *source) Read(p []byte) (int, error) {
	if s.off >= len(s.in.data) {
		return 0, io.EOF
	}
	t0 := time.Now()
	c := s.off / s.in.chunk
	if s.off%s.in.chunk == 0 {
		s.starts[c] = t0
	}
	n := copy(p, s.in.data[s.off:(c+1)*s.in.chunk]) // never across a chunk boundary
	s.off += n
	t1 := time.Now()
	s.readNS += t1.Sub(t0).Nanoseconds()
	s.tr.add("source.read", c, t0, t1)
	return n, nil
}

// sink receives what the program delivered and checks it against the
// input on its own: every chunk's length and CRC-32, in order. A chunk
// that arrives wrong, or never, is a failed operation.
type sink struct {
	in       *input
	off      int
	crc      uint32 // running CRC of the chunk being received
	ends     []time.Time
	verified int
	writeNS  int64
	tr       *tracer
}

func newSink(in *input) *sink {
	return &sink{in: in, ends: make([]time.Time, in.chunks)}
}

func (k *sink) Write(p []byte) (int, error) {
	t0 := time.Now()
	for rest := p; len(rest) > 0; {
		c := k.off / k.in.chunk
		if c >= k.in.chunks {
			k.off += len(rest) // more bytes than were sent: never verifies
			break
		}
		n := k.in.chunk - k.off%k.in.chunk
		if n > len(rest) {
			n = len(rest)
		}
		k.crc = crc32.Update(k.crc, crc32.IEEETable, rest[:n])
		k.off += n
		rest = rest[n:]
		if k.off%k.in.chunk == 0 {
			if k.crc == k.in.crcs[c] {
				k.verified++
			}
			k.crc = 0
			k.ends[c] = time.Now()
			k.tr.add("sink.write", c, t0, k.ends[c])
		}
	}
	k.writeNS += time.Since(t0).Nanoseconds()
	return len(p), nil
}

// latenciesMS returns, for every chunk that both left the source and
// reached the sink, the time between the two.
func latenciesMS(src *source, snk *sink) []float64 {
	out := make([]float64, 0, len(snk.ends))
	for c, end := range snk.ends {
		if !end.IsZero() && !src.starts[c].IsZero() {
			out = append(out, float64(end.Sub(src.starts[c]).Nanoseconds())/1e6)
		}
	}
	return out
}
