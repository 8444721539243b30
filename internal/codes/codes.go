// Package codes resolves FEC code family names into core.Code instances.
// It sits below the experiment and engine layers so both can build codes
// from declarative specs ("ldgm-staircase", k, ratio) without importing
// each other. The ratio of a spec is sender-side configuration: N turns it
// into a symbol count, and every code is built from (family, k, n, seed).
package codes

// Names are the four code families the paper studies: Reed-Solomon and
// the three LDGM variants. Every one of CodecNames builds through Spec.
var Names = []string{"rse", "ldgm", "ldgm-staircase", "ldgm-triangle"}
