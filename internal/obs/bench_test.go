package obs

// Overhead benchmarks for the instrumentation primitives — the ns/op
// here is the price every instrumented hot path pays per event.

import (
	"strings"
	"testing"
)

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
	if c.Load() == 0 {
		b.Fatal("counter did not count")
	}
}

func BenchmarkCounterIncNil(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncParallel(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkGaugeAdd(b *testing.B) {
	var g Gauge
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Add(1)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(DurationBuckets(), SecondsUnit)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i%10_000_000 + 1))
	}
	if h.Snapshot().Total() == 0 {
		b.Fatal("histogram did not count")
	}
}

func BenchmarkHistogramObserveNil(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	h := NewHistogram(DurationBuckets(), SecondsUnit)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			h.Observe(int64(i%10_000_000 + 1))
			i++
		}
	})
}

func BenchmarkWritePrometheus(b *testing.B) {
	r := buildFixedRegistry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTracerEmit(b *testing.B) {
	var sink strings.Builder
	tr := NewTracer(&sink, TracerConfig{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink.Reset()
		tr.Emit(Event{Event: TraceDecode, Object: uint32(i), Packets: 32, NS: 12345})
	}
}

func BenchmarkTracerUnsampled(b *testing.B) {
	// Sample 0 objects in practice: threshold ~0 means almost every ID
	// costs exactly one hash and no encoding.
	tr := NewTracer(&strings.Builder{}, TracerConfig{Sample: 1e-12})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(Event{Event: TraceDecode, Object: uint32(i)})
	}
}
