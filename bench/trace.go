package main

import (
	"encoding/json"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"fecperf/internal/symbol"
)

// span is one timed interval at a layer boundary, recorded by the
// harness around its calls into the program. Parent is the index of
// the span that caused it (-1 for a root); spans of one chunk share
// its Chunk number.
type span struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	Chunk    int    `json:"chunk"`
	Parent   int    `json:"parent"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written once, when the
// benchmark ends. A nil tracer records nothing, so untraced
// repetitions pay one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	rep   int // index of the enclosing repetition's span, -1 outside one
	wl    string
	repNo int
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), rep: -1} }

type openSpan struct {
	t   *tracer
	idx int
}

// begin opens a repetition-level span; spans added until its end are
// its children.
func (t *tracer) begin(name, workload string, rep int) openSpan {
	if t == nil {
		return openSpan{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.wl, t.repNo = workload, rep
	t.spans = append(t.spans, span{Name: name, Workload: workload, Rep: rep, Chunk: -1, Parent: -1,
		StartNS: time.Since(t.epoch).Nanoseconds()})
	t.rep = len(t.spans) - 1
	return openSpan{t, t.rep}
}

func (s openSpan) end() {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	s.t.spans[s.idx].EndNS = time.Since(s.t.epoch).Nanoseconds()
	if s.t.rep == s.idx {
		s.t.rep = -1
	}
}

// add records a finished child span of the current repetition.
func (t *tracer) add(name string, chunk int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Workload: t.wl, Rep: t.repNo, Chunk: chunk, Parent: t.rep,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds()})
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// meter brackets one repetition with the process-wide counters the
// per-byte metrics are built from: CPU time, bytes allocated, symbol
// pool traffic and garbage-collector work. With sample set it also
// polls the heap size at 20 Hz for the peak.
type meter struct {
	cpu0  float64
	mem0  runtime.MemStats
	pool0 symbol.Stats
	stop  chan struct{}
	done  chan struct{}
	peak  uint64 // written by poll, read after done closes
}

// usage is what a repetition consumed.
type usage struct {
	cpuS       float64
	allocBytes uint64
	poolGets   uint64
	poolMisses uint64
	poolLive   int64
	gcCycles   uint32
	gcPauseMS  float64
	heapPeak   uint64 // 0 unless sampled
}

func startMeter(sample bool) *meter {
	m := &meter{}
	if sample {
		m.stop, m.done = make(chan struct{}), make(chan struct{})
		go m.poll()
	}
	m.pool0 = symbol.PoolStats()
	runtime.ReadMemStats(&m.mem0)
	m.cpu0 = processCPUSeconds()
	return m
}

func (m *meter) poll() {
	defer close(m.done)
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > m.peak {
			m.peak = v
		}
		select {
		case <-m.stop:
			return
		case <-tick.C:
		}
	}
}

func (m *meter) end() usage {
	cpu := processCPUSeconds()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	pool := symbol.PoolStats()
	if m.stop != nil {
		close(m.stop)
		<-m.done
	}
	return usage{
		cpuS:       cpu - m.cpu0,
		allocBytes: mem.TotalAlloc - m.mem0.TotalAlloc,
		poolGets:   pool.Gets - m.pool0.Gets,
		poolMisses: pool.Misses - m.pool0.Misses,
		poolLive:   pool.Live,
		gcCycles:   mem.NumGC - m.mem0.NumGC,
		gcPauseMS:  float64(mem.PauseTotalNs-m.mem0.PauseTotalNs) / 1e6,
		heapPeak:   m.peak,
	}
}

// layerValues renders the usage as the symbol.* and runtime.* metrics.
func (u usage) layerValues(into map[string]float64) {
	into["symbol.pool_gets"] = float64(u.poolGets)
	into["symbol.pool_misses"] = float64(u.poolMisses)
	into["symbol.live_buffers_end"] = float64(u.poolLive)
	into["runtime.heap_peak_mib"] = float64(u.heapPeak) / (1 << 20)
	into["runtime.gc_cycles"] = float64(u.gcCycles)
	into["runtime.gc_pause_ms"] = u.gcPauseMS
}
