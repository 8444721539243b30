// Package symbol provides the pooled buffers the payload codec layer and
// the cast datapath allocate from. Every encode, decode and transport
// step in the repository moves fixed-size symbol payloads around;
// allocating each one with make() puts the garbage collector on the
// packet path. This package replaces that with a size-classed free list
// built on sync.Pool, and with Slab, which carves one object's symbols
// out of a few top-class buffers so the datapath pays the pool once per
// 64 KiB rather than once per symbol.
//
// # Ownership contract
//
// A buffer obtained from Get (or GetDirty, Clone) — and a Slab as a whole
// — is owned by exactly one holder at a time. The owner may hand it to
// another component only by transferring ownership: after the handoff
// the previous holder must not read, write or release it. The final owner
// either calls Put / Release, returning the memory for reuse, or simply
// drops it (un-Put memory is ordinary garbage; nothing leaks). Put and
// Release must never run twice for the same memory and never while
// someone else still holds a view into it: the next Get may hand the same
// backing array to an unrelated caller.
//
// The unit of ownership on the cast datapath is the object's slab, not
// the symbol. Concretely, in this repository:
//
//   - session.EncodeObject (and EncodeSegments) owns one slab of n
//     ready-to-send frames (header ++ payload) per object. Source bytes
//     are copied into it once, Codec.EncodeInto writes parity into it in
//     place, and transport.Sender hands views of its slots to the conn —
//     conns never retain what they are handed. Object.Close releases the
//     slab, which is why the sender's Close waits for its Run to return.
//   - transport.Caster reads each chunk of its source into a staging slab
//     of MaxPooled pieces, which it Resets once EncodeSegments has copied
//     them into the chunk's frames.
//   - core.PayloadDecoder implementations own a slab of k source slots
//     plus one of working symbols: Reed-Solomon's buffered parity and
//     solve vectors, the LDGM codes' m accumulators (one per check
//     equation). The payload passed to ReceivePayload is borrowed; a
//     source is copied once, to its final slot, and missing sources are
//     rebuilt into theirs. Parity a decoder must keep is copied into the
//     second slab; the LDGM peeler keeps none — it XORs a parity payload
//     into its equations' accumulators during the call and never reads
//     it again. Either way nothing aliases the caller's buffer once
//     ReceivePayload has returned. When the decoder is done the source
//     slab is the object: TakeSources moves it, untouched, to the
//     object's session.Reassembly, which wraps it as a session.Decoded
//     and returns it from the Ingest call that completed it; Close
//     releases whatever the decoder still owns.
//   - transport.ReceiverDaemon owns a Reassembly for as long as its
//     table entry is in flight and Closes it on eviction (an object that
//     decodes, or turns out corrupt, has closed its own). The Decoded it
//     gets back it hands, once, to its sink, which owns it from then on.
//   - transport.Collector, as that sink, writes and checksums the bytes
//     in order straight out of the slab and Releases it — the hand-back
//     that lets a cast of any length run on the few slabs one window
//     needs — and Releases what is still queued when its Run returns.
//   - The daemon's default sink, behind Object, WaitObject and
//     OnComplete, calls Decoded.Bytes: a copy in memory of its own,
//     never pooled, so a holder's bytes cannot be recycled under it; the
//     slab goes back to the pool at that call.
//   - Codec.Encode (the convenience form of EncodeInto) returns parity in
//     per-symbol pooled buffers owned by the caller;
//   - the daemon's stream-cast reader owns one pooled buffer per cast;
//   - transport.ReceiverDaemon.Run reads into one pooled buffer, reused
//     for every read and Put when Run returns — packets decoded from it
//     alias the buffer, which is why decoders copy exactly once at the
//     ownership boundary.
package symbol

import (
	"sync"
	"sync/atomic"
)

// Size classes are powers of two from 64 bytes to 64 KiB — below the
// smallest class Get rounds up (a few wasted bytes beat a dedicated
// class), above the largest it falls through to plain make (jumbo
// buffers are rare enough that pooling them only pins memory).
const (
	minClassBits = 6  // 64 B
	maxClassBits = 16 // 64 KiB
	numClasses   = maxClassBits - minClassBits + 1
)

// MaxPooled is the largest buffer capacity the pool recycles.
const MaxPooled = 1 << maxClassBits

var classes [numClasses]sync.Pool

// headers recycles the *[]byte boxes sync.Pool forces on us, so the
// steady state of Get/Put allocates nothing at all: the box freed by a
// Get is the box the next Put fills.
var headers = sync.Pool{New: func() any { return new([]byte) }}

// classFor returns the index of the smallest class holding n bytes, or
// -1 when n exceeds MaxPooled.
func classFor(n int) int {
	if n > MaxPooled {
		return -1
	}
	c := 0
	for size := 1 << minClassBits; size < n; size <<= 1 {
		c++
	}
	return c
}

// classOf returns the class whose buffers have exactly capacity c, or -1
// when c is not a class size. Only exact matches are pooled: a foreign
// slice with an odd capacity is dropped rather than corrupting a class.
func classOf(c int) int {
	if c < 1<<minClassBits || c > MaxPooled || c&(c-1) != 0 {
		return -1
	}
	cl := 0
	for size := 1 << minClassBits; size < c; size <<= 1 {
		cl++
	}
	return cl
}

// Get returns a zeroed buffer of length n (capacity rounded up to the
// size class). The caller owns it; see the package ownership contract.
func Get(n int) []byte {
	if n < 0 {
		panic("symbol: negative length")
	}
	b := getRaw(n)
	clear(b)
	return b
}

// GetDirty is Get without the zeroing, for callers that overwrite every
// byte before reading any: the buffer holds whatever its last owner left.
func GetDirty(n int) []byte {
	if n < 0 {
		panic("symbol: negative length")
	}
	return getRaw(n)
}

// Clone returns a pooled copy of p. The caller owns the copy.
func Clone(p []byte) []byte {
	b := getRaw(len(p))
	copy(b, p)
	return b
}

func getRaw(n int) []byte {
	c := classFor(n)
	if c < 0 {
		jumbos.Inc()
		return make([]byte, n)
	}
	gets.Inc()
	live.Add(1)
	if hp, _ := classes[c].Get().(*[]byte); hp != nil {
		b := (*hp)[:n]
		*hp = nil
		headers.Put(hp)
		return b
	}
	misses.Inc()
	return make([]byte, n, 1<<(minClassBits+c))
}

// poison makes Put overwrite a buffer before pooling it: see
// PoisonReleased.
var poison atomic.Bool

// PoisonReleased makes every buffer read as garbage from the moment it is
// Put (0xDB in every byte) instead of from whenever the pool happens to
// hand it out again, so that a view outliving its slab's release fails
// the check that reads it — a header CRC, a comparison — at once and
// every time. For tests of who owns a slab when; off by default.
func PoisonReleased(on bool) { poison.Store(on) }

// Put returns b to its size class for reuse. Buffers whose capacity is
// not an exact class size (not allocated by this pool, or jumbo) are
// ignored. Put(nil) is a no-op.
func Put(b []byte) {
	c := classOf(cap(b))
	if c < 0 {
		return
	}
	puts.Inc()
	live.Add(-1)
	b = b[:cap(b)]
	if poison.Load() {
		for i := range b {
			b[i] = 0xDB
		}
	}
	hp := headers.Get().(*[]byte)
	*hp = b
	classes[c].Put(hp)
}

// PutAll returns every non-nil buffer in bs to the pool and nils the
// entries, guarding against accidental use after release.
func PutAll(bs [][]byte) {
	for i, b := range bs {
		if b != nil {
			Put(b)
			bs[i] = nil
		}
	}
}
