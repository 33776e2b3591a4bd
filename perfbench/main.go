// Command perfbench is the repository's outside-in benchmark. It runs one
// of three workloads on seeded inputs, checks every output byte, and
// prints every metric by name with its unit and sample count; the last
// stdout line is a JSON summary. With -trace 1 it instead replays each
// layer on the inputs its parent hands it and prints the per-layer
// metrics. See README.md.
//
//	perfbench -workload archive-speed|archive-ratio|serve -seed N -seconds S -trace 0|1 [-smoke]
//	perfbench compare RESULT_A.json RESULT_B.json
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"fpcompress"
	"fpcompress/internal/selector"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// sizes holds every input size and count of a run.
type sizes struct {
	corpusValues               int // values per synthetic SDR file
	small, mid, large          int // archive input sizes in bytes
	sliceMin, sliceMax         int // slice lengths of the large inputs
	dumpSliceMin, dumpSliceMax int // slice lengths of the multi-domain dumps
	paySliceMin, paySliceMax   int // slice lengths of serve payloads
	warm                       int // warm-up prefix
	reads, traceReads          int // ReadAt calls per run; replayed reads per op
	identityPrefix             int // prefix compressed at Parallelism 1 and GOMAXPROCS
	setupReps                  int
	payloads                   int
	payloadMin, payloadMax     int
	loRate, hiRate             float64 // serve rates, req/s
	ladder                     []float64
	latLimitMs                 float64
	kernelChunks, kernelReps   int
	apiPairs                   int
}

// defaultSizes sizes a full run: the large archive inputs are 4x the
// last-level cache (capped at 256 MiB to bound memory).
func defaultSizes(llc int64) sizes {
	large := int(min(4*llc, 256<<20))
	return sizes{
		corpusValues: 1 << 17,
		small:        4 << 20, mid: 16 << 20, large: large,
		sliceMin: 64 << 10, sliceMax: 1 << 20,
		dumpSliceMin: 8 << 10, dumpSliceMax: 128 << 10,
		paySliceMin: 16 << 10, paySliceMax: 64 << 10,
		warm:  1 << 20,
		reads: 80000, traceReads: 100,
		identityPrefix: 8 << 20,
		setupReps:      3,
		payloads:       200, payloadMin: 16 << 10, payloadMax: 1 << 20,
		loRate: 500, hiRate: 2000,
		ladder:       []float64{2000, 4000, 6000, 8000, 10000, 12000, 16000},
		latLimitMs:   50,
		kernelChunks: 64, kernelReps: 7,
		apiPairs: 100,
	}
}

// smokeSizes is one small pass per workload, for the benchmark's tests.
func smokeSizes() sizes {
	return sizes{
		corpusValues: 1 << 12,
		small:        64 << 10, mid: 128 << 10, large: 256 << 10,
		sliceMin: 4 << 10, sliceMax: 16 << 10,
		dumpSliceMin: 1 << 10, dumpSliceMax: 4 << 10,
		paySliceMin: 1 << 10, paySliceMax: 4 << 10,
		warm:  16 << 10,
		reads: 50, traceReads: 5,
		identityPrefix: 64 << 10,
		setupReps:      1,
		payloads:       10, payloadMin: 4 << 10, payloadMax: 32 << 10,
		loRate: 50, hiRate: 100,
		ladder:       []float64{100, 200},
		latLimitMs:   500,
		kernelChunks: 4, kernelReps: 1,
		apiPairs: 3,
	}
}

var workloads = []string{"archive-speed", "archive-ratio", "serve"}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		if len(args) != 3 {
			fmt.Fprintln(stderr, "usage: perfbench compare RESULT_A.json RESULT_B.json")
			return 2
		}
		if err := compare(stdout, args[1], args[2]); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 3
		}
		return 0
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "archive-speed, archive-ratio or serve")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced per-layer run")
	smoke := fs.Bool("smoke", false, "tiny inputs, one pass")
	specPath := fs.String("spec", "BENCHMARK.json", "metric list to check the result against")
	outDir := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for full results and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	if !known || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload one of %v, -seconds >= 1, -trace 0 or 1\n", workloads)
		return 2
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	host := fingerprint()
	sz := defaultSizes(host.LLCBytes)
	if *smoke {
		sz = smokeSizes()
	}
	res := newResult(host, *workload, *seed, *seconds, *trace == 1, *smoke)
	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	dur := time.Duration(*seconds) * time.Second
	if *smoke {
		dur = 0
	}
	var violations []string
	if *workload == "serve" {
		violations, err = serveWorkload(res, sz, *seed, *seconds, tr, *smoke)
	} else {
		violations, err = archiveWorkload(res, sz, *workload, *seed, dur, tr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if tr != nil {
		path := filepath.Join(*outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", *workload, *seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		res.Inputs = append(res.Inputs, fmt.Sprintf("spans: %d in %s", len(tr.spans), path))
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(stderr, "perfbench: sum of parts:", v)
		}
		return 1
	}
	if err := res.check(sp); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	path, err := res.save(*outDir)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res.Inputs = append(res.Inputs, "result: "+path)
	if err := res.print(stdout, sp); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// timedSetups runs setup reps times, keeping the last result and
// reporting the median wall time as setup_s. Each earlier result is
// released with drop before the next setup starts.
func timedSetups[T any](res *Result, reps int, setup func() (T, error), drop func(T)) (T, error) {
	var out T
	var times []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			drop(out)
			out = *new(T)
			runtime.GC()
		}
		s := time.Now()
		v, err := setup()
		if err != nil {
			return out, err
		}
		times = append(times, time.Since(s).Seconds())
		out = v
	}
	res.Metrics.set("setup_s", median(times), len(times))
	return out, nil
}

// archiveWorkload runs archive-speed or archive-ratio, untraced or traced.
func archiveWorkload(res *Result, sz sizes, workload string, seed uint64, dur time.Duration, tr *tracer) ([]string, error) {
	reps := sz.setupReps
	if tr != nil {
		reps = 1
	}
	set, err := timedSetups(res, reps, func() (*archiveSet, error) {
		set := setupArchive(workload, seed, sz, res.Host.LLCBytes)
		return set, set.warm(sz)
	}, func(*archiveSet) {})
	if err != nil {
		return nil, err
	}
	res.Inputs = append(res.Inputs, set.inputs...)
	if tr == nil {
		runArchive(set, res, sz, seed, dur)
		res.Metrics.set("error_share", ratioOf(float64(res.Failed), float64(res.Attempted)), res.Attempted)
		return nil, nil
	}
	return traceArchive(set, res, sz, seed, tr)
}

// e2eTracer makes the end-to-end calls of a traced run: each starts cold,
// as in the untraced run, and is recorded as a span together with its
// allocation, selector and GC counts.
type e2eTracer struct {
	tr                   *tracer
	mallocs, tried, kept uint64
	gc                   gcSample
	compNs               float64
	compIn               int64
}

func (t *e2eTracer) call(opID int, name string, f func()) {
	coldStart()
	sel0, m0, g0 := selector.Counters(), readMem(), readGC()
	s := t.tr.now()
	f()
	e := t.tr.now()
	sel1, m1, g1 := selector.Counters(), readMem(), readGC()
	t.tr.add(opID, 0, name, s, e, 1)
	t.mallocs += m1.Mallocs - m0.Mallocs
	t.tried += sel1.ReencodeTried - sel0.ReencodeTried
	t.kept += sel1.ReencodeKept - sel0.ReencodeKept
	t.gc.cycles += g1.cycles - g0.cycles
	t.gc.gcCPU += g1.gcCPU - g0.gcCPU
	t.gc.totalCPU += g1.totalCPU - g0.totalCPU
	if name == "api.Compress" {
		t.compNs += float64(e - s)
	}
}

func (t *e2eTracer) compress(opID int, o *op) ([]byte, error) {
	var c []byte
	var err error
	t.call(opID, "api.Compress", func() { c, err = fpcompress.Compress(o.alg, o.in, o.options(0)) })
	t.compIn += int64(len(o.in))
	return c, err
}

func (t *e2eTracer) decompress(opID int, o *op, c []byte) ([]byte, error) {
	var d []byte
	var err error
	t.call(opID, "api.Decompress", func() { d, err = fpcompress.Decompress(c, o.options(0)) })
	return d, err
}

// traceOverhead compares compress throughput with and without the
// end-to-end tracing on every op's first mid-size bytes, which are cheap
// enough to run twice.
func traceOverhead(set *archiveSet, res *Result, sz sizes, tr *tracer) (float64, error) {
	var prefixes []*op
	for _, o := range set.ops {
		p := *o
		p.in = o.in[:min(len(o.in), sz.mid)]
		prefixes = append(prefixes, &p)
	}
	untraced := &archiveLoop{set: &archiveSet{ops: prefixes}, res: res}
	untraced.round()
	traced := &e2eTracer{tr: tr}
	for i, o := range prefixes {
		res.Attempted++
		if _, err := traced.compress(len(set.ops)+1+i, o); err != nil {
			return 0, fmt.Errorf("compress %s: %w", o.name, err)
		}
	}
	return ratioOf(mbps(int(traced.compIn), traced.compNs), untraced.medianMBps(untraced.compT)), nil
}

// traceArchive is the traced archive run. Every op is compressed and
// decompressed once end to end under the e2eTracer and then replayed layer
// by layer; the random-access, API and kernel replays follow.
func traceArchive(set *archiveSet, res *Result, sz sizes, seed uint64, tr *tracer) ([]string, error) {
	m := res.Metrics
	overhead, err := traceOverhead(set, res, sz, tr)
	if err != nil {
		return nil, err
	}
	m.set("harness.trace_overhead", overhead, len(set.ops))
	agg := &layerAgg{}
	e2e := &e2eTracer{tr: tr}
	refs := make([][]byte, len(set.ops))
	for i, o := range set.ops {
		res.Attempted++
		c, err := e2e.compress(i+1, o)
		if err != nil {
			return nil, fmt.Errorf("compress %s: %w", o.name, err)
		}
		refs[i] = c
		res.Attempted++
		if d, err := e2e.decompress(i+1, o, c); err != nil || !bytes.Equal(d, o.in) {
			res.fail("decompress %s differs: %v", o.name, err)
		}
		if err := replayOp(tr, i+1, o, c, agg, res); err != nil {
			return nil, err
		}
	}
	n := len(set.ops)
	agg.setLayerMetrics(m, n, ratioOf(float64(e2e.mallocs), float64(n)), e2e.tried, e2e.kept)
	res.Inputs = append(res.Inputs, agg.opLines...)
	m.set("runtime.gc_per_op", ratioOf(e2e.gc.cycles, float64(2*n)), 2*n)
	m.set("runtime.gc_cpu_share", ratioOf(e2e.gc.gcCPU, e2e.gc.totalCPU), 2*n)
	m.set("harness.gen_late_p99_ms", 0, 0)
	res.na("harness.gen_late_p99_ms", "closed loop: no arrival schedule")

	if err := raReplay(tr, set.ops, refs, rand.New(rand.NewPCG(seed, 0x72657072)), sz.traceReads, m, res); err != nil {
		return nil, err
	}
	if err := apiAndKernels(set.ops, set.sp, set.dp, sz, m, agg); err != nil {
		return nil, err
	}
	zeroLayers(m, res, "serve workload only",
		"server.codec_avg_us", "server.noncodec_avg_us", "server.busy_share", "server.inflight_mean")
	return agg.violations, nil
}
