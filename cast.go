package fecperf

// Streaming large-object delivery: Caster cuts a byte source of any
// size into a train of FEC-encoded delivery objects and drives the
// broadcast carousel with backpressure (a bounded window of encoded
// chunks); Collector reassembles completed chunks in order into an
// io.Writer, closing the train on its trailing manifest with an
// end-to-end length and CRC check. Single in-memory objects use
// NewObject; the round-robin carousel over whole objects is
// NewBroadcaster / NewReceiverDaemon.

import (
	"io"

	"fecperf/internal/session"
	"fecperf/internal/transport"
	"fecperf/internal/wire"
)

// Streaming delivery types, re-exported.
type (
	// Caster streams an io.Reader of arbitrary size as a chunked,
	// FEC-encoded object train with bounded memory.
	Caster = transport.Caster
	// CastProgress describes a running cast.
	CastProgress = transport.CastProgress
	// CasterStats is a snapshot of cast counters.
	CasterStats = transport.CasterStats
	// Collector reassembles a cast train in order into an io.Writer.
	Collector = transport.Collector
	// CollectorStats snapshots a collect; Receiver holds its packet counters.
	CollectorStats = transport.CollectorStats
	// CollectProgress describes a running collect.
	CollectProgress = transport.CollectProgress
	// TrainManifest seals a chunked train: chunk count and size, total
	// bytes, and the whole-stream CRC.
	TrainManifest = session.Manifest
)

// NewCaster returns a caster streaming src over conn, configured by a
// one-line spec:
//
//	fecperf.NewCaster(conn, file,
//	    fecperf.WithSpec("codec=rse(k=256,ratio=1.5),sched=tx4,rate=5000,object=7"))
//
// The codec spec's k and the payload size fix the chunk geometry; the
// window bounds resident memory (the source is read as the carousel
// drains, never ahead of it). Drive the transfer with the caster's Run.
func NewCaster(conn TransportConn, src io.Reader, opts ...Option) (*Caster, error) {
	c, err := NewConfig(opts...)
	if err != nil {
		return nil, err
	}
	return transport.NewCaster(conn, src, transport.CasterConfig{
		Delivery:   c.Delivery,
		Rate:       c.Rate,
		Burst:      c.Burst,
		Pacer:      c.Pacer,
		OnProgress: c.OnCastProgress,
		Metrics:    c.Metrics,
		Tracer:     c.Tracer,
	})
}

// NewCollector returns a collector reassembling the train cast at the
// configured base object ID from conn into dst, verifying stream
// length and CRC before its Run reports success. The keys it reads:
// object= (must match the caster), payload= (sizes the read buffer),
// pending= (the out-of-order chunk bound) and batch= (datagrams per
// read); WithCollectProgress observes it.
func NewCollector(conn TransportConn, dst io.Writer, opts ...Option) (*Collector, error) {
	c, err := NewConfig(opts...)
	if err != nil {
		return nil, err
	}
	mtu := 0
	if c.PayloadSize != 0 {
		mtu = c.PayloadSize + wire.HeaderLen
	}
	return transport.NewCollector(conn, dst, transport.CollectorConfig{
		BaseObjectID: c.BaseObjectID,
		MaxPending:   c.MaxPending,
		MTU:          mtu,
		ReadBatch:    c.BatchSize,
		OnProgress:   c.OnCollectProgress,
		Metrics:      c.Metrics,
		Tracer:       c.Tracer,
	}), nil
}

// --- Single-object delivery session ---

// Delivery-session types, re-exported.
type (
	// DeliveryObject is an encoded object ready for transmission.
	DeliveryObject = session.Object
	// WirePacket is the parsed datagram format.
	WirePacket = wire.Packet
	// WireCodeFamily identifies the FEC code on the wire.
	WireCodeFamily = wire.CodeFamily
)

// Wire code family values.
const (
	WireRSE           = wire.CodeRSE
	WireLDGM          = wire.CodeLDGM
	WireLDGMStaircase = wire.CodeLDGMStaircase
	WireLDGMTriangle  = wire.CodeLDGMTriangle
	WireRSE16         = wire.CodeRSE16
	WireNoFEC         = wire.CodeNoFEC
)

// NewObject FEC-encodes one in-memory byte object for datagram
// transmission — the single-object form of a cast:
//
//	obj, err := fecperf.NewObject(data,
//	    fecperf.WithSpec("codec=ldgm-staircase(k=1000,ratio=2.5,seed=7),object=3,payload=1024"))
//
// The codec spec's k is ignored here: the object's size and the payload
// size fix it. Close the object when it will not be transmitted again.
func NewObject(data []byte, opts ...Option) (*DeliveryObject, error) {
	c, err := NewConfig(opts...)
	if err != nil {
		return nil, err
	}
	oc, err := c.ObjectConfig(c.BaseObjectID)
	if err != nil {
		return nil, err
	}
	return session.EncodeObject(data, oc)
}

// DecodeWirePacket parses one datagram without feeding a receiver (useful
// for inspection and filtering).
func DecodeWirePacket(datagram []byte) (*WirePacket, error) { return wire.Decode(datagram) }

// --- Whole-object carousel ---

// Carousel transport types, re-exported.
type (
	// Broadcaster streams encoded objects as a rate-limited carousel.
	Broadcaster = transport.Sender
	// BroadcasterConfig tunes the carousel (rate, rounds, scheduler).
	BroadcasterConfig = transport.SenderConfig
	// BroadcasterStats is a snapshot of sender counters.
	BroadcasterStats = transport.SenderStats
	// ReceiverDaemon demultiplexes datagrams into decoded objects with
	// bounded memory.
	ReceiverDaemon = transport.ReceiverDaemon
	// ReceiverDaemonConfig tunes the daemon's bounds and callbacks.
	ReceiverDaemonConfig = transport.ReceiverConfig
	// ReceiverStats is a snapshot of daemon counters.
	ReceiverStats = transport.Stats
)

// NewBroadcaster returns a carousel sender writing to conn; Add encoded
// objects (NewObject) before Run. An object holds its datagrams framed
// and checksummed in one pooled slab, and the carousel hands the conn
// views of those frames — nothing is re-encoded or copied per send — so
// added objects must stay open while the carousel runs. Call the
// sender's Close when done: it blocks until an in-flight Run returns
// (cancel its context first), then releases the objects' slabs.
// BroadcasterConfig.StartRound/StartPos resume an interrupted carousel
// mid-round, reproducing the original datagram sequence exactly.
func NewBroadcaster(conn TransportConn, cfg BroadcasterConfig) *Broadcaster {
	return transport.NewSender(conn, cfg)
}

// NewReceiverDaemon returns a reassembly daemon reading from conn; drive
// it with Run and collect objects via WaitObject, Object or OnComplete.
func NewReceiverDaemon(conn TransportConn, cfg ReceiverDaemonConfig) *ReceiverDaemon {
	return transport.NewReceiverDaemon(conn, cfg)
}

// NewBatchImpairment is ChannelByName(channelSpec) then Stepper, for
// harnesses that own their chain state. ok is false when the channel
// kind cannot be batch-stepped (markov, trace); the error is reserved
// for unparseable specs.
func NewBatchImpairment(channelSpec string) (st ChannelStepper, ok bool, err error) {
	s, err := ChannelByName(channelSpec)
	if err != nil {
		return ChannelStepper{}, false, err
	}
	st, ok = s.Stepper()
	return st, ok, nil
}
