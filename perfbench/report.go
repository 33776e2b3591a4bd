package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// metricSpec names a metric and its unit. BENCHMARK.json lists the same
// names; the benchmark's tests check that both lists agree.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// gatedE2E are the end-to-end metrics every workload reports in its result
// line: each has a meaning on all three workloads and is never 0.
// lat_p50_us and lat_p90_us are the workload's latency: ReadAt on the
// archive workloads, a request timed from its due time at the hi rate on
// serve. The gate takes the 90th percentile because the 99th, which the
// report prints, moves by a fifth between runs on a shared host.
var gatedE2E = []metricSpec{
	{"compress_mbps", "MB/s"},
	{"decompress_mbps", "MB/s"},
	{"ratio", "x"},
	{"lat_p50_us", "us"},
	{"lat_p90_us", "us"},
	{"alloc_b_per_b", "B/B"},
	{"setup_s", "s"},
}

// reportE2E are the thirteen end-to-end metrics of the human-readable
// report, by the names every later performance claim uses. Those that do
// not apply to a workload are printed as n/a with the reason.
var reportE2E = []metricSpec{
	{"compress_mbps", "MB/s"},
	{"decompress_mbps", "MB/s"},
	{"ratio", "x"},
	{"ra_p50_us", "us"},
	{"ra_p99_us", "us"},
	{"serve_lo_p50_ms", "ms"},
	{"serve_lo_p99_ms", "ms"},
	{"serve_hi_p50_ms", "ms"},
	{"serve_hi_p99_ms", "ms"},
	{"serve_max_rps", "req/s"},
	{"error_share", "fraction"},
	{"alloc_b_per_b", "B/B"},
	{"setup_s", "s"},
}

// layerMetrics lists the per-layer metrics of the traced run in report
// order.
func layerMetrics() []metricSpec {
	l := []metricSpec{
		{"core.pre_fwd_s", "s"},
		{"core.pre_inv_s", "s"},
		{"core.allocs_per_op", "count"},
		{"container.crc_s", "s"},
		{"container.self_s", "s"},
		{"container.codec_s", "s"},
		{"container.scaling_x", "x"},
		{"container.alloc_b_per_b", "B/B"},
		{"container.raw_share", "fraction"},
		{"container.parse_us", "us"},
	}
	for _, ks := range kernelSpecs() {
		l = append(l,
			metricSpec{"fused." + ks.name + ".fwd_mbps", "MB/s"},
			metricSpec{"fused." + ks.name + ".inv_mbps", "MB/s"})
	}
	for _, ks := range kernelSpecs() {
		for _, st := range stageNames(ks.k) {
			p := "transforms." + ks.name + "." + st
			l = append(l, metricSpec{p + ".fwd_mbps", "MB/s"}, metricSpec{p + ".inv_mbps", "MB/s"})
		}
		l = append(l, metricSpec{"transforms." + ks.name + ".fused_x", "x"})
	}
	for _, ks := range kernelSpecs() {
		l = append(l, metricSpec{"simd." + ks.name + ".fwd_x", "x"}, metricSpec{"simd." + ks.name + ".inv_x", "x"})
		for _, st := range stageNames(ks.k) {
			p := "simd." + ks.name + "." + st
			l = append(l, metricSpec{p + ".fwd_x", "x"}, metricSpec{p + ".inv_x", "x"})
		}
	}
	return append(l,
		metricSpec{"selector.price_s", "s"},
		metricSpec{"selector.price_share", "fraction"},
		metricSpec{"selector.reencode_tried", "count"},
		metricSpec{"selector.reencode_kept_share", "fraction"},
		metricSpec{"ra.open_us", "us"},
		metricSpec{"ra.chunks_per_read", "count"},
		metricSpec{"ra.chunk_decode_us", "us"},
		metricSpec{"server.codec_avg_us", "us"},
		metricSpec{"server.noncodec_avg_us", "us"},
		metricSpec{"server.busy_share", "fraction"},
		metricSpec{"server.inflight_mean", "count"},
		metricSpec{"api.self_us", "us"},
		metricSpec{"runtime.gc_per_op", "count"},
		metricSpec{"runtime.gc_cpu_share", "fraction"},
		metricSpec{"harness.gen_late_p99_ms", "ms"},
		metricSpec{"harness.trace_overhead", "x"},
	)
}

// Metric is one measured value with its unit and sample count.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// metrics maps metric names to values; set fills the unit from the
// catalogs so a name and its unit cannot drift apart.
type metrics map[string]Metric

var units = func() map[string]string {
	u := map[string]string{}
	for _, l := range [][]metricSpec{gatedE2E, reportE2E, layerMetrics()} {
		for _, s := range l {
			u[s.Name] = s.Unit
		}
	}
	return u
}()

func (m metrics) set(name string, v float64, n int) {
	u, ok := units[name]
	if !ok {
		panic("perfbench: metric not in the catalog: " + name)
	}
	m[name] = Metric{Value: v, Unit: u, N: n}
}

// Result is everything one run measured. It is written to the results
// directory in full; stdout carries a readable report and, as its last
// line, the summary that BENCHMARK.json describes.
type Result struct {
	Host      Host              `json:"host"`
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Smoke     bool              `json:"smoke,omitempty"`
	Inputs    []string          `json:"inputs"`
	Metrics   metrics           `json:"metrics"`
	NA        map[string]string `json:"not_applicable,omitempty"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
}

func newResult(h Host, workload string, seed uint64, seconds int, trace, smoke bool) *Result {
	return &Result{Host: h, Workload: workload, Seed: seed, Seconds: seconds, Trace: trace, Smoke: smoke,
		Metrics: metrics{}, NA: map[string]string{}}
}

// fail records a failed, refused or byte-mismatched operation.
func (r *Result) fail(format string, a ...any) {
	r.Failed++
	if len(r.Errors) < 20 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, a...))
	}
}

func (r *Result) na(name, why string) { r.NA[name] = why }

// spec is the part of BENCHMARK.json the benchmark checks itself against.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// summaryMetrics returns the metrics the summary line must carry: the
// gated end-to-end metrics, or with trace the per-layer ones.
func (s *spec) summaryMetrics(trace bool) []metricSpec {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

// check verifies, before anything is printed, that every metric the
// summary names is present with its unit and a finite value, and that
// gated end-to-end metrics are positive. A run missing one fails whole
// instead of silently dropping it.
func (r *Result) check(s *spec) error {
	var bad []string
	for _, ms := range s.summaryMetrics(r.Trace) {
		m, ok := r.Metrics[ms.Name]
		switch {
		case !ok:
			bad = append(bad, ms.Name+" missing")
		case m.Unit != ms.Unit:
			bad = append(bad, fmt.Sprintf("%s unit %q, spec %q", ms.Name, m.Unit, ms.Unit))
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			bad = append(bad, fmt.Sprintf("%s not finite (%v)", ms.Name, m.Value))
		case !r.Trace && m.Value <= 0:
			bad = append(bad, fmt.Sprintf("%s not positive (%v)", ms.Name, m.Value))
		}
	}
	if r.Attempted < 1 {
		bad = append(bad, "no operation attempted")
	}
	if len(bad) > 0 {
		return fmt.Errorf("incomplete result: %s", strings.Join(bad, "; "))
	}
	return nil
}

// summary is the last stdout line.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]valued `json:"metrics"`
}

type valued struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the readable report followed by the summary line.
func (r *Result) print(w io.Writer, s *spec) error {
	hb, err := json.Marshal(r.Host)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "host %s\n", hb)
	fmt.Fprintf(w, "workload %s seed %d seconds %d trace %v\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	for _, in := range r.Inputs {
		fmt.Fprintf(w, "input %s\n", in)
	}
	list := append(reportE2E[:len(reportE2E):len(reportE2E)], gatedE2E[3:5]...)
	if r.Trace {
		list = layerMetrics()
	}
	for _, ms := range list {
		if m, ok := r.Metrics[ms.Name]; ok {
			fmt.Fprintf(w, "metric %-40s %16.6f %-8s n=%d\n", ms.Name, m.Value, m.Unit, m.N)
		} else {
			fmt.Fprintf(w, "metric %-40s %16s %-8s (%s)\n", ms.Name, "n/a", ms.Unit, r.NA[ms.Name])
		}
	}
	fmt.Fprintf(w, "operations attempted %d failed %d\n", r.Attempted, r.Failed)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "error %s\n", e)
	}
	out := summary{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]valued{}}
	for _, ms := range s.summaryMetrics(r.Trace) {
		m := r.Metrics[ms.Name]
		out.Metrics[ms.Name] = valued{Value: m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// save writes the full result as JSON into dir and returns its path.
func (r *Result) save(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, b2i(r.Trace)))
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func loadResult(path string) (*Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compare prints metric-by-metric ratios of two saved results and refuses
// results from different hosts or workloads.
func compare(w io.Writer, pathA, pathB string) error {
	a, err := loadResult(pathA)
	if err != nil {
		return err
	}
	b, err := loadResult(pathB)
	if err != nil {
		return err
	}
	if !sameHost(a.Host, b.Host) {
		ha, _ := json.Marshal(a.Host)
		hb, _ := json.Marshal(b.Host)
		return fmt.Errorf("refusing to compare results from different hosts:\n  %s\n  %s", ha, hb)
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		return fmt.Errorf("refusing to compare %s (trace %v) with %s (trace %v)", a.Workload, a.Trace, b.Workload, b.Trace)
	}
	fmt.Fprintf(w, "%-40s %16s %16s %8s\n", "metric", "a", "b", "b/a")
	for _, l := range [][]metricSpec{reportE2E, layerMetrics()} {
		for _, ms := range l {
			ma, okA := a.Metrics[ms.Name]
			mb, okB := b.Metrics[ms.Name]
			if okA && okB {
				fmt.Fprintf(w, "%-40s %16.6f %16.6f %8.3f %s\n", ms.Name, ma.Value, mb.Value, ratioOf(mb.Value, ma.Value), ms.Unit)
			}
		}
	}
	return nil
}
