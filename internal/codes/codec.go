package codes

// Codec resolution. Every per-family decision in the repository funnels
// through this file — the session layer, transport and examples build
// codecs from specs or on-the-wire OTI and never switch on a family
// themselves. A code's identity is the integers on the wire, (family, k,
// n, seed): ForWire is the one constructor, and Spec.New turns a
// configured ratio into n (N) before it calls it. The one key that is not
// on the wire, an LDGM spec's decoder=gauss, picks a simulated receiver
// (Spec.New) and never reaches ForWire.

import (
	"fmt"
	"math"

	"fecperf/internal/core"
	"fecperf/internal/ldpc"
	"fecperf/internal/repetition"
	"fecperf/internal/rse"
	"fecperf/internal/rse16"
	"fecperf/internal/wire"
)

// CodecNames are the families a Spec names: every family usable through
// the core.Codec payload interface.
var CodecNames = []string{"rse", "rse16", "ldgm", "ldgm-staircase", "ldgm-triangle", "no-fec"}

// N is where a configured expansion ratio becomes the symbol count n a
// sender announces. The ratio is sender-side configuration and goes no
// further: (family, k, n, seed) travel in every datagram and are all a
// codec is built from. A non-finite ratio, or an n past uint32, is an error.
func N(f wire.CodeFamily, k int, ratio float64) (n int, err error) {
	if !(ratio >= 1) || math.IsInf(ratio, 1) { // also rejects NaN
		return 0, fmt.Errorf("codes: expansion ratio %g is not a finite value >= 1", ratio)
	}
	n = int(min(float64(k)*ratio+0.5, math.MaxUint32+1))
	if f == wire.CodeRSE {
		n, err = rse.N(k, ratio, 0) // per-block rounding
	}
	if err == nil && int64(n) > math.MaxUint32 {
		return 0, fmt.Errorf("codes: k=%d at ratio %g needs more than the header's %d symbols", k, ratio, uint32(math.MaxUint32))
	}
	return n, err
}

// ForWire builds the codec the integers on the wire describe — the one
// constructor senders and receivers share. Geometry a family cannot
// realise is an error, so a receiver rejects impossible OTI instead of
// mis-decoding; the codec is then nil.
func ForWire(f wire.CodeFamily, k, n int, seed int64) (c core.Codec, err error) {
	defer func() {
		if err != nil {
			c = nil // not a nil *T in a non-nil interface
		}
	}()
	switch f {
	case wire.CodeRSE:
		return rse.New(rse.Params{K: k, N: n})
	case wire.CodeRSE16:
		return rse16.New(rse16.Params{K: k, N: n})
	case wire.CodeLDGM, wire.CodeLDGMStaircase, wire.CodeLDGMTriangle:
		return ldpc.New(ldpc.Params{K: k, N: n, Variant: ldgmVariant(f), Seed: seed})
	case wire.CodeNoFEC:
		if n != k {
			return nil, fmt.Errorf("codes: no-fec carries no parity; n=%d must equal k=%d", n, k)
		}
		return repetition.New(k)
	default:
		return nil, fmt.Errorf("codes: unsupported code family %v", f)
	}
}

func ldgmVariant(f wire.CodeFamily) ldpc.Variant {
	switch f {
	case wire.CodeLDGMStaircase:
		return ldpc.Staircase
	case wire.CodeLDGMTriangle:
		return ldpc.Triangle
	default:
		return ldpc.Plain
	}
}
