package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"fpcompress"
	"fpcompress/internal/core"
)

// op is one archiving operation of a workload: one algorithm over one
// input, compressed and decompressed through the allocating public API
// with the default Parallelism, as fpcz does.
type op struct {
	name     string
	alg      fpcompress.Algorithm
	windowed bool
	in       []byte
}

// options are the public-API options of the op at parallelism p (0 = the
// default). Archive inputs are trusted local data, so the decode budget is
// lifted for outputs beyond the 64 MiB default.
func (o *op) options(p int) *fpcompress.Options {
	return &fpcompress.Options{Parallelism: p, WindowedFCM: o.windowed, MaxDecodedSize: -1}
}

func (o *op) algorithm() (*core.Algorithm, error) {
	if o.windowed {
		return core.NewWindowed(o.alg)
	}
	return core.New(o.alg)
}

// randomAccess reports whether the op's containers support ReadAt: all
// but whole-input DPratio, whose FCM pre-stage spans chunks.
func (o *op) randomAccess() bool { return o.alg != fpcompress.DPratio || o.windowed }

func opName(alg fpcompress.Algorithm, windowed bool, kind string, n int) string {
	a := alg.String()
	if windowed {
		a += "-w"
	}
	return fmt.Sprintf("%s %s %s", a, kind, mib(int64(n)))
}

// archiveSet is what the setup of an archive workload produces.
type archiveSet struct {
	ops    []*op
	inputs []string
	sp, dp [][]byte // the workload's single- and double-precision data
}

// setupArchive builds the inputs of archive-speed or archive-ratio from
// the seed. Inputs at the large size are at least 4x the last-level cache
// so the container engine works beyond the cache.
func setupArchive(workload string, seed uint64, sz sizes, llc int64) *archiveSet {
	r := rand.New(rand.NewPCG(seed, 0x61726368))
	c := newCorpus(sz.corpusValues)
	set := &archiveSet{}
	big := sz.large
	sps, dps := newSlicer(r, c.sp), newSlicer(r, c.dp)
	sp := sps.assemble(big, sz.sliceMin, sz.sliceMax)
	dp := dps.assemble(big, sz.sliceMin, sz.sliceMax)
	set.sp, set.dp = [][]byte{sp}, [][]byte{dp}
	add := func(alg fpcompress.Algorithm, windowed bool, kind string, in []byte) {
		set.ops = append(set.ops, &op{name: opName(alg, windowed, kind, len(in)), alg: alg, windowed: windowed, in: in})
	}
	switch workload {
	case "archive-speed":
		add(fpcompress.SPspeed, false, "sp", sp)
		add(fpcompress.DPspeed, false, "dp", dp)
	case "archive-ratio":
		// Interleaved multi-domain dumps: short slices of fields from
		// every domain in seeded order, so neighbouring chunks differ in
		// character and the per-chunk selector has choices to make.
		a32 := sps.assemble(sz.mid, sz.dumpSliceMin, sz.dumpSliceMax)
		a64 := dps.assemble(sz.mid, sz.dumpSliceMin, sz.dumpSliceMax)
		set.sp = append(set.sp, a32)
		set.dp = append(set.dp, a64)
		for _, n := range []int{sz.small, big} {
			add(fpcompress.SPratio, false, "sp", sp[:n])
		}
		for _, n := range []int{sz.small, sz.mid, big} {
			add(fpcompress.DPratio, false, "dp", dp[:n])
		}
		for _, n := range []int{sz.small, big} {
			add(fpcompress.DPratio, true, "dp", dp[:n])
		}
		for _, n := range []int{sz.small, sz.mid} {
			add(fpcompress.Auto32, false, "sp-dump", a32[:n])
			add(fpcompress.Auto64, false, "dp-dump", a64[:n])
		}
	}
	set.inputs = append(set.inputs,
		fmt.Sprintf("large input %s = %.1f x LLC %s", mib(int64(big)), float64(big)/float64(llc), mib(llc)))
	for _, o := range set.ops {
		set.inputs = append(set.inputs, "op "+o.name)
	}
	return set
}

// warm runs every op once on a small prefix so code, pools and lazily
// built tables are ready before anything is timed.
func (set *archiveSet) warm(sz sizes) error {
	for _, o := range set.ops {
		in := o.in[:min(len(o.in), sz.warm)]
		c, err := fpcompress.Compress(o.alg, in, o.options(0))
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", o.name, err)
		}
		d, err := fpcompress.Decompress(c, o.options(0))
		if err != nil || !bytes.Equal(d, in) {
			return fmt.Errorf("warm-up %s: round trip failed: %v", o.name, err)
		}
	}
	return nil
}

// archiveLoop is the closed-loop state of one archive run: one caller
// compresses and decompresses every op in turn.
type archiveLoop struct {
	set                     *archiveSet
	res                     *Result
	refs                    [][]byte    // first container of each op
	compT, decT             [][]float64 // ns of every call, per op
	compIn, compOut, decOut int64
	rounds                  int
}

// coldStart collects the heap twice, which empties every sync.Pool, and
// returns the freed memory to the operating system, so each timed call
// starts from the state a fresh fpcz process has: empty pools, and new
// buffers that fault their pages in. Left to the collector's and the
// scavenger's timing, the pools and the free pages differ from call to
// call: the cost of a call that grows large pooled buffers (whole-input
// DPratio) then changes many-fold between identical calls, and that of
// the others by a third.
func coldStart() {
	runtime.GC()
	debug.FreeOSMemory()
}

// decompressPerCompress is how often a round decompresses each container
// it compresses: archives are read more often than written, and the
// decompress calls, far shorter than the compress calls, need the extra
// samples to be steady in a round as long as whole-input DPratio's.
const decompressPerCompress = 5

// round compresses every op once and decompresses the container
// decompressPerCompress times, checking every output byte.
func (l *archiveLoop) round() {
	if l.refs == nil {
		l.refs = make([][]byte, len(l.set.ops))
		l.compT = make([][]float64, len(l.set.ops))
		l.decT = make([][]float64, len(l.set.ops))
	}
	for i, o := range l.set.ops {
		l.res.Attempted++
		coldStart()
		t := time.Now()
		c, err := fpcompress.Compress(o.alg, o.in, o.options(0))
		elapsed := float64(time.Since(t))
		if err != nil {
			l.res.fail("compress %s: %v", o.name, err)
			continue
		}
		l.compT[i] = append(l.compT[i], elapsed)
		l.compIn += int64(len(o.in))
		l.compOut += int64(len(c))
		if l.refs[i] == nil {
			l.refs[i] = c
		} else if !bytes.Equal(c, l.refs[i]) {
			l.res.fail("compress %s: container differs between rounds", o.name)
		}
		for k := 0; k < decompressPerCompress; k++ {
			l.res.Attempted++
			coldStart()
			t = time.Now()
			d, err := fpcompress.Decompress(c, o.options(0))
			elapsed := float64(time.Since(t))
			if err != nil {
				l.res.fail("decompress %s: %v", o.name, err)
				continue
			}
			l.decT[i] = append(l.decT[i], elapsed)
			l.decOut += int64(len(d))
			if !bytes.Equal(d, o.in) {
				l.res.fail("decompress %s: output differs from input", o.name)
			}
		}
	}
	l.rounds++
}

// medianMBps is the throughput of one pass over every op at each op's
// median call time. A stall of the shared host during a few calls does
// not move it, while a change to one op still moves it by that op's share
// of the pass.
func (l *archiveLoop) medianMBps(ts [][]float64) float64 {
	var b, ns float64
	for i, o := range l.set.ops {
		if len(ts[i]) > 0 {
			b += float64(len(o.in))
			ns += median(ts[i])
		}
	}
	return ratioOf(b*1e3, ns)
}

func calls(ts [][]float64) int {
	n := 0
	for _, t := range ts {
		n += len(t)
	}
	return n
}

// minWarmBatches and maxWarmBatches bound the unreported read batches
// before the measured ones.
const (
	minWarmBatches = 10
	maxWarmBatches = 60
)

// minorFaults is the number of page faults the process has taken that
// needed no I/O: on a heap that grows into fresh memory, one per page.
func minorFaults() int64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return int64(ru.Minflt)
}

// reads runs seeded ReadAt calls of 4-64 KiB over the op containers that
// support random access, checking every byte: a warm-up, then n measured
// reads. It returns the measured latencies in microseconds, batch by
// batch, the bytes read, warm-up included, and the number of warm-up
// batches.
func (l *archiveLoop) reads(r *rand.Rand, n int) ([][]float64, int64, int) {
	type target struct {
		o  *op
		ra *fpcompress.RandomAccess
	}
	var ts []target
	for i, o := range l.set.ops {
		if !o.randomAccess() || l.refs[i] == nil {
			continue
		}
		ra, err := fpcompress.OpenRandomAccess(l.refs[i], nil)
		if err != nil {
			l.res.Attempted++
			l.res.fail("open random access %s: %v", o.name, err)
			continue
		}
		ts = append(ts, target{o, ra})
	}
	if len(ts) == 0 {
		return nil, 0, 0
	}
	// Reads pick a container with probability proportional to its size,
	// as uniform reads over the whole archive would.
	var bytesTotal int
	for _, t := range ts {
		bytesTotal += len(t.o.in)
	}
	buf := make([]byte, 64<<10)
	var total int64
	batch := func(k int) []float64 {
		lat := make([]float64, 0, k)
		for ; k > 0; k-- {
			i, at := 0, r.IntN(bytesTotal)
			for at >= len(ts[i].o.in) {
				at -= len(ts[i].o.in)
				i++
			}
			t := ts[i]
			size := min(4<<10+r.IntN(60<<10+1), len(t.o.in))
			off := r.IntN(len(t.o.in) - size + 1)
			l.res.Attempted++
			s := time.Now()
			got, err := t.ra.ReadAt(buf[:size], int64(off))
			lat = append(lat, float64(time.Since(s))/1e3)
			total += int64(got)
			if err != nil {
				l.res.fail("ReadAt %s [%d,+%d): %v", t.o.name, off, size, err)
				continue
			}
			if !bytes.Equal(buf[:size], t.o.in[off:off+size]) {
				l.res.fail("ReadAt %s [%d,+%d): bytes differ from input", t.o.name, off, size)
			}
		}
		return lat
	}
	// The reads start from a collected heap with its free pages returned,
	// so the scavenger is not still releasing the rounds' garbage while
	// they run. Until the heap has grown to the size the reads keep
	// reusing, every allocation faults in fresh pages and a read costs
	// about twice as much; how many reads that takes depends on the live
	// heap, and what a fault costs on the host's memory load. So the
	// warm-up lasts until the collector has run twice since the start and
	// the last batch faulted in less than a tenth of what it allocated.
	coldStart()
	page := int64(os.Getpagesize())
	gc0 := readMem().NumGC
	warm := 0
	for warm < maxWarmBatches {
		m0, f0 := readMem(), minorFaults()
		batch(batchSize)
		m1, f1 := readMem(), minorFaults()
		warm++
		if warm >= minWarmBatches && m1.NumGC-gc0 >= 2 &&
			(f1-f0)*page*10 < int64(m1.TotalAlloc-m0.TotalAlloc) {
			break
		}
	}
	var lat [][]float64
	for k := n; k > 0; k -= batchSize {
		lat = append(lat, batch(min(k, batchSize)))
	}
	return lat, total, warm
}

// checkParallelIdentity compresses a prefix of every op input at
// Parallelism 1 and at GOMAXPROCS and checks the containers are identical,
// as the container format promises. The traced run checks whole inputs.
func checkParallelIdentity(res *Result, ops []*op, limit int) {
	n := runtime.GOMAXPROCS(0)
	for _, o := range ops {
		in := o.in[:min(len(o.in), limit)]
		res.Attempted++
		c1, err1 := fpcompress.Compress(o.alg, in, o.options(1))
		cn, errN := fpcompress.Compress(o.alg, in, o.options(n))
		switch {
		case err1 != nil || errN != nil:
			res.fail("compress %s: %v / %v", o.name, err1, errN)
		case !bytes.Equal(c1, cn):
			res.fail("compress %s: Parallelism 1 and %d give different containers", o.name, n)
		}
	}
}

// runArchive is the untraced run: closed-loop rounds until the run time
// is used up, then the ReadAt phase and the parallel-identity check. Only
// the calls themselves are timed; the run lasts longer than dur by the
// cold starts between them.
func runArchive(set *archiveSet, res *Result, sz sizes, seed uint64, dur time.Duration) {
	l := &archiveLoop{set: set, res: res}
	runtime.GC()
	m0 := readMem()
	start := time.Now()
	// Another round starts only when it is expected, at the mean round
	// time so far, to end within dur.
	for l.rounds == 0 || time.Since(start)*time.Duration(l.rounds+1)/time.Duration(l.rounds) <= dur {
		l.round()
	}
	lat, readBytes, warm := l.reads(rand.New(rand.NewPCG(seed, 0x72656164)), sz.reads)
	m1 := readMem()
	res.Metrics.set("compress_mbps", l.medianMBps(l.compT), calls(l.compT))
	res.Metrics.set("decompress_mbps", l.medianMBps(l.decT), calls(l.decT))
	res.Metrics.set("ratio", ratioOf(float64(l.compIn), float64(l.compOut)), calls(l.compT))
	raw := float64(l.compIn + l.decOut + readBytes)
	res.Metrics.set("alloc_b_per_b", ratioOf(float64(m1.TotalAlloc-m0.TotalAlloc), raw), l.rounds)
	n := calls(lat)
	res.Metrics.set("ra_p50_us", batchQuantile(lat, 0.5), n)
	res.Metrics.set("ra_p99_us", batchQuantile(lat, 0.99), n)
	res.Metrics.set("lat_p50_us", quietQuantile(lat, 0.5), n)
	res.Metrics.set("lat_p90_us", quietQuantile(lat, 0.9), n)
	res.Inputs = append(res.Inputs, fmt.Sprintf("closed loop: 1 caller, %d rounds in %.2f s", l.rounds, time.Since(start).Seconds()),
		fmt.Sprintf("ReadAt: %d warm-up batches of %d, then %d measured reads", warm, batchSize, n))
	checkParallelIdentity(res, set.ops, sz.identityPrefix)
	for _, n := range []string{"serve_lo_p50_ms", "serve_lo_p99_ms", "serve_hi_p50_ms", "serve_hi_p99_ms", "serve_max_rps"} {
		res.na(n, "serve workload only")
	}
}
