package engine

import "hash/fnv"

// hashString folds a string into a 64-bit stream identifier (FNV-1a);
// used to derive per-point seeds from the point's configuration key so
// a point keeps its seed when a plan is extended or reordered.
func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
