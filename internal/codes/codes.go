// Package codes resolves FEC code family names into core.Code instances.
// It sits below the experiment and engine layers so both can build codes
// from declarative specs ("ldgm-staircase", k, ratio) without importing
// each other. The ratio of a spec is sender-side configuration: N turns it
// into a symbol count, and every code is built from (family, k, n, seed).
package codes

import (
	"fmt"
	"slices"

	"fecperf/internal/core"
)

// Names are the identifiers accepted by Make.
var Names = []string{"rse", "ldgm", "ldgm-staircase", "ldgm-triangle"}

// Make builds a code by family name for a given object size and FEC
// expansion ratio: MakeCodec, restricted to the families the simulation
// studies (Names). The seed fixes the pseudo-random LDGM construction (it
// is ignored by RSE), so repeated runs are reproducible.
func Make(name string, k int, ratio float64, seed int64) (core.Code, error) {
	if !slices.Contains(Names, name) {
		return nil, fmt.Errorf("codes: unknown code %q (have %v)", name, Names)
	}
	return MakeCodec(name, k, ratio, seed)
}
