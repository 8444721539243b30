package daemon

import (
	"context"
	"fmt"
	"testing"
	"time"

	"fecperf/internal/codes"
	"fecperf/internal/transport"
)

// The shared-vs-independent pair: benchFleet concurrent carousels at
// one aggregate budget, once multiplexed through a single daemon and
// its hierarchical pacer, once as separate senders each owning an
// equal slice of the rate. The ratio of the two pkts/s numbers is the
// daemon's multiplexing cost (gate: >= 0.9x), and the shared run's
// per-cast spread is the pacer's fairness (gate: max/min deviation
// <= 10%).
const (
	benchFleet = 8
	benchRate  = 200_000 // aggregate packets per second across the fleet
)

// benchWindow is one benchmark iteration: how long counters accumulate
// between snapshots.
const benchWindow = 250 * time.Millisecond

// drainHub attaches a discarding receiver so the loopback never backs
// up.
func drainHub(hub *transport.Loopback) {
	rx := hub.Receiver(nil, 1<<16)
	go func() {
		buf := make([]byte, 2048)
		for {
			if _, err := rx.Recv(buf); err != nil {
				return
			}
		}
	}()
}

// BenchmarkDaemonSharedThroughput runs benchFleet unbounded carousels
// in one daemon on one shared pacer and measures the aggregate packet
// rate plus the per-cast fairness deviation.
func BenchmarkDaemonSharedThroughput(b *testing.B) {
	hubs := newTestHubs()
	defer hubs.close()
	d := New(Config{Rate: benchRate, BatchSize: 16, Dial: hubs.dial})
	defer d.Close()

	data := testData(64<<10, 3)
	names := make([]string, benchFleet)
	for i := 0; i < benchFleet; i++ {
		addr := fmt.Sprintf("239.9.0.%d:9000", i)
		drainHub(hubs.hub(addr))
		names[i] = fmt.Sprintf("cast%d", i)
		err := d.AddCast(CastSpec{
			Name: names[i], Addr: addr, Data: data,
			Delivery: transport.Delivery{
				BaseObjectID: uint32(i + 1), Seed: int64(i + 1),
				Codec: codes.Spec{Family: "rse", Ratio: 1.5},
			},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	snapshot := func() map[string]uint64 {
		out := make(map[string]uint64, benchFleet)
		for _, st := range d.Casts() {
			out[st.Name] = st.Packets
		}
		return out
	}
	// Let every carousel clear its start-up transient before timing.
	for deadline := time.Now().Add(10 * time.Second); ; {
		done := 0
		for _, p := range snapshot() {
			if p > 0 {
				done++
			}
		}
		if done == benchFleet {
			break
		}
		if time.Now().After(deadline) {
			b.Fatal("fleet never started sending")
		}
		time.Sleep(time.Millisecond)
	}

	b.ResetTimer()
	perCast := make(map[string]uint64, benchFleet)
	var total uint64
	for i := 0; i < b.N; i++ {
		before := snapshot()
		time.Sleep(benchWindow)
		after := snapshot()
		for _, name := range names {
			delta := after[name] - before[name]
			perCast[name] += delta
			total += delta
		}
	}
	b.StopTimer()

	pps := float64(total) / b.Elapsed().Seconds()
	minP, maxP := perCast[names[0]], perCast[names[0]]
	for _, name := range names {
		if perCast[name] < minP {
			minP = perCast[name]
		}
		if perCast[name] > maxP {
			maxP = perCast[name]
		}
	}
	mean := float64(total) / benchFleet
	b.ReportMetric(pps, "pkts/s")
	b.ReportMetric(float64(maxP-minP)/mean*100, "fairdev%")
}

// BenchmarkIndependentSendersThroughput is the baseline: the same
// fleet as separate senders, each pacing itself at an equal slice of
// the aggregate budget — the shape a daemon-less deployment has to
// use.
func BenchmarkIndependentSendersThroughput(b *testing.B) {
	hubs := newTestHubs()
	defer hubs.close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	data := testData(64<<10, 3)
	senders := make([]*transport.Sender, benchFleet)
	for i := 0; i < benchFleet; i++ {
		addr := fmt.Sprintf("239.9.1.%d:9000", i)
		drainHub(hubs.hub(addr))
		obj, err := encodeObject(CastSpec{Delivery: transport.Delivery{
			Seed: int64(i + 1), Codec: codes.Spec{Family: "rse", Ratio: 1.5},
		}}, uint32(i+1), data)
		if err != nil {
			b.Fatal(err)
		}
		conn, _ := hubs.dial(addr)
		s := transport.NewSender(conn, transport.SenderConfig{
			Rate:      benchRate / benchFleet,
			BatchSize: 16,
			Seed:      int64(i + 1),
		})
		if err := s.Add(obj); err != nil {
			b.Fatal(err)
		}
		senders[i] = s
		go s.Run(ctx)
	}
	defer func() {
		cancel()
		for _, s := range senders {
			s.Close()
		}
	}()
	snapshot := func() (out [benchFleet]uint64) {
		for i, s := range senders {
			out[i] = s.Stats().PacketsSent
		}
		return out
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		done := 0
		for _, p := range snapshot() {
			if p > 0 {
				done++
			}
		}
		if done == benchFleet {
			break
		}
		if time.Now().After(deadline) {
			b.Fatal("senders never started")
		}
		time.Sleep(time.Millisecond)
	}

	b.ResetTimer()
	var total uint64
	for i := 0; i < b.N; i++ {
		before := snapshot()
		time.Sleep(benchWindow)
		after := snapshot()
		for j := range senders {
			total += after[j] - before[j]
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "pkts/s")
}
