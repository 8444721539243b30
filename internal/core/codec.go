// Payload codec abstractions. The ID-level Code/Receiver interfaces in
// core.go are what the paper's simulations run on: they track which
// packets arrived, never their bytes. Codec and PayloadDecoder are the
// byte-carrying halves the delivery session and transport ship real data
// through — one uniform surface over all code families, so nothing above
// this layer ever switches on a family again.

package core

import (
	"fmt"

	"fecperf/internal/symbol"
)

// Codec is a Code that can also carry payloads: it encodes k source
// symbols into n-k parity symbols and mints incremental payload decoders.
// All four families implement it (Reed-Solomon over GF(2^8) and GF(2^16),
// the LDGM variants, and the repetition baseline). Implementations are
// immutable after construction and safe for concurrent use.
type Codec interface {
	Code
	// EncodeInto computes the n-k parity payloads from the k source
	// payloads into memory the caller supplies: src holds the k sources
	// in global-ID order, parity n-k slices of the same length (parity ID
	// K+i is parity[i]), every byte of which is overwritten. This is the
	// datapath entry: the session layer passes views into an object's
	// frame slab, so parity is computed where it will be sent from.
	// EncodeInto retains neither argument.
	EncodeInto(src, parity [][]byte) error
	// Encode is EncodeInto with the parity buffers drawn one per symbol
	// from the symbol pool and owned by the caller (release them with
	// symbol.PutAll, or let the garbage collector take them) — the
	// convenience form for tools and tests that hold no slab.
	Encode(src [][]byte) ([][]byte, error)
	// NewDecoder mints a fresh incremental decoder for payloads of
	// symLen bytes. It returns an error when the length is unusable by
	// the family (zero, negative, or odd for the GF(2^16) codec).
	NewDecoder(symLen int) (PayloadDecoder, error)
}

// PayloadDecoder is an incremental payload decoder: packets are delivered
// one at a time in arrival order, exactly as a receiver experiences them.
//
// Buffer ownership is the load-bearing part of this contract. The decoder
// owns one slab of k source slots (symbol.Slab, stride symLen) plus
// whatever slab it needs for parity and scratch; their buffers are drawn
// from the pool as symbols land, so memory follows what arrived, not what
// the header announced. The payload passed to ReceivePayload is only
// borrowed for the duration of the call: a source payload is copied once,
// straight to its final slot — the one copy between the caller's read
// buffer and the decoded object — and missing sources are rebuilt into
// their slots, so when the decoder is Done the source slab *is* the
// object. A parity payload is copied if the decoder needs it later
// (Reed-Solomon buffers it for the solve) and merely read if it does not
// (the LDGM peeler folds it into its equations before returning); the
// caller may overwrite its buffer as soon as the call returns. Slices
// returned by Source are views into the source slab: valid until
// TakeSources or Close, and not to be modified.
type PayloadDecoder interface {
	// ReceivePayload delivers packet id with its payload and returns
	// true once all k source payloads are recovered. Duplicates and
	// arrivals after completion are no-ops. It panics on an out-of-range
	// id or a payload whose length differs from the decoder's symLen —
	// feeding it unvalidated network input is a caller bug (the session
	// layer checks both against the object's OTI first).
	ReceivePayload(id int, payload []byte) bool
	// Done reports whether all k source payloads are recovered.
	Done() bool
	// SourceRecovered returns how many of the k source payloads are
	// currently known (received or rebuilt).
	SourceRecovered() int
	// Source returns the payload of source symbol i, or nil if it is
	// not yet recovered (or the sources were taken).
	Source(i int) []byte
	// TakeSources hands over the source slab once the decoder is Done:
	// slot i is source symbol i. Ownership moves to the caller, who
	// Releases it when the bytes have been consumed; Close no longer
	// does, and Source returns nil from here on. It panics before Done.
	TakeSources() symbol.Slab
	// Close returns the slabs the decoder still owns to the symbol pool
	// and the decoder to the code that built it, whose next decoder of
	// the same kind it may become. The caller must drop its pointer: the
	// decoder must not be used afterwards (Source slices die with it). A
	// second Close before the code hands the decoder out again is a
	// no-op.
	Close()
}

// EncodePooled implements Codec.Encode for any family on top of its
// EncodeInto: one pooled buffer per parity symbol, owned by the caller.
func EncodePooled(c Codec, src [][]byte) ([][]byte, error) {
	if len(src) == 0 {
		return nil, fmt.Errorf("%s: no source payloads", c.Name())
	}
	l := c.Layout()
	parity := make([][]byte, l.N-l.K)
	for i := range parity {
		parity[i] = symbol.GetDirty(len(src[0]))
	}
	if err := c.EncodeInto(src, parity); err != nil {
		symbol.PutAll(parity)
		return nil, err
	}
	return parity, nil
}
