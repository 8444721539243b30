// Package cpuid reports once which vector extensions assembly kernels
// may use: CPU flags plus the OS saving their register state (XGETBV).
// Builds without assembly (other architectures, `-tags purego`) report
// none, as constants, so the compiler drops every dispatch branch.
package cpuid
