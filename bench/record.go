package main

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"fecperf"
)

// runRecord is the provenance every result file carries: enough to tell
// whether two files are comparable at all.
type runRecord struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Kernel     string  `json:"kernel"`
	GSO        string  `json:"gso"` // "on", "off" or "no-udp"
	Seed       int64   `json:"seed"`
	Reps       int     `json:"reps"` // 0 = as many as fit in Seconds
	Seconds    float64 `json:"seconds"`
	Scale      int     `json:"scale"`
	Traced     bool    `json:"traced"`
	Started    string  `json:"started"`
	SpanFile   string  `json:"span_file,omitempty"`
}

// resultFile is what -out writes and compare / report read.
type resultFile struct {
	Record    runRecord        `json:"record"`
	Workloads []workloadResult `json:"workloads"`
}

func newRunRecord(opt options) runRecord {
	return runRecord{
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Kernel:     kernel(),
		GSO:        probeGSO(),
		Seed:       opt.seed,
		Reps:       opt.reps,
		Seconds:    opt.seconds,
		Scale:      opt.scale,
		Traced:     opt.trace,
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
}

// commit asks git; a checkout that is not a repository is "unknown".
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	if dirty, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(dirty) > 0 {
		rev += "+dirty"
	}
	return rev
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernel() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// probeGSO reports whether this host's UDP sockets take the segmented
// (GSO) batch-write path; the transport probes it when dialing.
func probeGSO() string {
	c, err := fecperf.Dial("127.0.0.1:9")
	if err != nil {
		return "no-udp"
	}
	defer c.Close()
	if g, ok := c.(interface{ GSOEnabled() bool }); ok && g.GSOEnabled() {
		return "on"
	}
	return "off"
}
