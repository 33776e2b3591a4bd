package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"fpcompress/internal/simd"
)

// Host fingerprints the machine and build a result came from. Results are
// comparable only when every field except GitSHA agrees (see sameHost).
type Host struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	LLCBytes   int64  `json:"llc_bytes"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	GOAMD64    string `json:"goamd64"`
	KernelPath string `json:"kernel_path"`
	GitSHA     string `json:"git_sha"`
}

// defaultLLC is assumed when the cache hierarchy cannot be read.
const defaultLLC = 32 << 20

func fingerprint() Host {
	inf := simd.RuntimeInfo()
	h := Host{
		CPUModel:   inf.CPUModel,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		LLCBytes:   lastLevelCache(),
		GoVersion:  runtime.Version(),
		GOARCH:     inf.GOARCH,
		GOAMD64:    inf.GOAMD64,
		KernelPath: inf.KernelPath,
		GitSHA:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.GitSHA = s.Value
			}
		}
	}
	return h
}

// sameHost reports whether two results were measured on the same host and
// toolchain; the commit is expected to differ between compared runs.
func sameHost(a, b Host) bool {
	a.GitSHA, b.GitSHA = "", ""
	return a == b
}

// lastLevelCache reads the size of the highest-level data or unified cache
// of CPU 0 from sysfs, falling back to defaultLLC.
func lastLevelCache() int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	best, bestLevel := int64(0), 0
	for _, d := range dirs {
		typ := readTrim(filepath.Join(d, "type"))
		if typ == "Instruction" {
			continue
		}
		level, err := strconv.Atoi(readTrim(filepath.Join(d, "level")))
		if err != nil {
			continue
		}
		size := parseSize(readTrim(filepath.Join(d, "size")))
		if size > 0 && level > bestLevel {
			best, bestLevel = size, level
		}
	}
	if best == 0 {
		return defaultLLC
	}
	return best
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// parseSize parses sysfs cache sizes such as "32768K" or "2M".
func parseSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return n * mult
}

func mib(n int64) string { return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20)) }
