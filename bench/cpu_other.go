//go:build !unix

package main

import "runtime/metrics"

// processCPUSeconds falls back to the runtime's own CPU estimate where
// getrusage is missing; it only advances at garbage collections, so the
// CPU metrics are coarse on these platforms.
func processCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/user:cpu-seconds"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64() + s[1].Value.Float64()
}
