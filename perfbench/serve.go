package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"fpcompress"
	"fpcompress/internal/server"
)

// payload is one request body of the serve workload: raw data, the
// algorithm compress requests name, and its container (made by the local
// API during setup) that decompress requests send.
type payload struct {
	alg  fpcompress.Algorithm
	data []byte
	comp []byte
}

// serveSet is a running in-process fpcd with its client connections.
type serveSet struct {
	payloads []*payload
	srv      *server.Server
	served   chan error
	clients  []*fpcompress.Client
	inputs   []string
}

// payloadAlgs is the serve mix, by tenths: mostly the speed algorithms,
// with some ratio ones, each on data of its own precision.
var payloadAlgs = [10]fpcompress.Algorithm{
	fpcompress.SPspeed, fpcompress.SPspeed, fpcompress.SPspeed, fpcompress.SPspeed,
	fpcompress.DPspeed, fpcompress.DPspeed, fpcompress.DPspeed, fpcompress.DPspeed,
	fpcompress.SPratio, fpcompress.DPratio,
}

// setupServe makes the seeded payloads, compresses them, starts the server
// on a loopback port and dials one connection per CPU.
func setupServe(seed uint64, sz sizes) (*serveSet, error) {
	r := rand.New(rand.NewPCG(seed, 0x73657276))
	c := newCorpus(sz.corpusValues)
	set := &serveSet{}
	var total int
	// Each algorithm gets the same log-uniform spread of sizes on every
	// seed (the midpoints of equal strata); the seed picks only the data
	// and the request sequence, so the slowest requests, which set the
	// tail latency, are alike from seed to seed.
	count := map[fpcompress.Algorithm]int{}
	for i := 0; i < sz.payloads; i++ {
		count[payloadAlgs[i%len(payloadAlgs)]]++
	}
	rank := map[fpcompress.Algorithm]int{}
	sps, dps := newSlicer(r, c.sp), newSlicer(r, c.dp)
	for i := 0; i < sz.payloads; i++ {
		alg := payloadAlgs[i%len(payloadAlgs)]
		sl := sps
		if alg == fpcompress.DPspeed || alg == fpcompress.DPratio {
			sl = dps
		}
		q := (float64(rank[alg]) + 0.5) / float64(count[alg])
		rank[alg]++
		n := int(float64(sz.payloadMin) * math.Pow(float64(sz.payloadMax)/float64(sz.payloadMin), q))
		data := sl.assemble(n, sz.paySliceMin, sz.paySliceMax)
		comp, err := fpcompress.Compress(alg, data, nil)
		if err != nil {
			return nil, fmt.Errorf("payload %d: %w", i, err)
		}
		set.payloads = append(set.payloads, &payload{alg: alg, data: data, comp: comp})
		total += len(data)
	}
	set.inputs = append(set.inputs, fmt.Sprintf("%d payloads, %s total, %s to %s each",
		len(set.payloads), mib(int64(total)), mib(int64(sz.payloadMin)), mib(int64(sz.payloadMax))))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	set.srv = server.New(server.Config{})
	set.served = make(chan error, 1)
	go func() { set.served <- set.srv.Serve(ln) }()
	for i := 0; i < runtime.NumCPU(); i++ {
		// No retries: a busy rejection is a refused request, counted as
		// an error, not hidden behind a retry.
		cl, err := fpcompress.Dial(ln.Addr().String(), &fpcompress.ClientOptions{MaxRetries: -1})
		if err != nil {
			set.close()
			return nil, err
		}
		set.clients = append(set.clients, cl)
	}
	for i, p := range set.payloads {
		cl := set.clients[i%len(set.clients)]
		c, err := cl.Compress(p.alg, p.data)
		if err != nil || !bytes.Equal(c, p.comp) {
			set.close()
			return nil, fmt.Errorf("warm-up compress of payload %d: %v", i, err)
		}
		d, err := cl.Decompress(p.comp)
		if err != nil || !bytes.Equal(d, p.data) {
			set.close()
			return nil, fmt.Errorf("warm-up decompress of payload %d: %v", i, err)
		}
	}
	return set, nil
}

// close disconnects the clients and shuts the server down, waiting for
// its accept loop to return.
func (s *serveSet) close() {
	for _, c := range s.clients {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
	if err := <-s.served; err != nil && !errors.Is(err, server.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "perfbench: server: %v\n", err)
	}
}

// outcome is one request's result.
type outcome struct {
	due          time.Time
	fromDue, rtt time.Duration
	decompress   bool
	ok           bool
	in, out      int // raw and compressed byte counts
}

// phaseResult collects one open-loop phase.
type phaseResult struct {
	rate     float64
	outs     []outcome
	lateness []float64 // ms the generator sent each request after its due time
	drain    time.Duration
}

// latencies returns every request's latency from its due time in ms;
// failed or refused requests count as infinitely late, so they miss any
// limit.
func (p *phaseResult) latencies() []float64 {
	l := make([]float64, len(p.outs))
	for i, o := range p.outs {
		l[i] = float64(o.fromDue) / 1e6
		if !o.ok {
			l[i] = math.Inf(1)
		}
	}
	return l
}

// phase runs an open loop: requests arrive as a Poisson process at rate
// req/s for dur, each a seeded 1:1 compress/decompress choice over the
// payloads, and the connections take them in arrival order. Each request
// is timed from when it was due, so a stall also delays the requests
// queued behind it. With tr set, every request is recorded as a span.
func (s *serveSet) phase(r *rand.Rand, rate float64, dur time.Duration, res *Result, tr *tracer) *phaseResult {
	type request struct {
		id         int
		due        time.Time
		p          *payload
		decompress bool
	}
	// The queue holds every request the phase can schedule, so the
	// generator never blocks behind a stalled connection.
	queue := make(chan request, int(rate*dur.Seconds()*2)+64)
	outs := make([][]outcome, len(s.clients))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w, cl := range s.clients {
		wg.Add(1)
		go func(w int, cl *fpcompress.Client) {
			defer wg.Done()
			for q := range queue {
				start := time.Now()
				var out []byte
				var err error
				if q.decompress {
					out, err = cl.Decompress(q.p.comp)
				} else {
					out, err = cl.Compress(q.p.alg, q.p.data)
				}
				end := time.Now()
				o := outcome{due: q.due, fromDue: end.Sub(q.due), rtt: end.Sub(start), decompress: q.decompress, in: len(q.p.data)}
				switch {
				case err != nil:
					mu.Lock()
					res.fail("request %d: %v", q.id, err)
					mu.Unlock()
				case q.decompress && !bytes.Equal(out, q.p.data):
					mu.Lock()
					res.fail("request %d: decompressed bytes differ from the payload", q.id)
					mu.Unlock()
				case !q.decompress && !bytes.Equal(out, q.p.comp):
					mu.Lock()
					res.fail("request %d: server container differs from the local one", q.id)
					mu.Unlock()
				default:
					o.ok = true
					o.out = len(out)
					if q.decompress {
						o.out = len(q.p.comp)
					}
				}
				if tr != nil {
					name := "client.Compress"
					if q.decompress {
						name = "client.Decompress"
					}
					tr.add(q.id, 0, name, int64(start.Sub(tr.t0)), int64(end.Sub(tr.t0)), 1)
				}
				outs[w] = append(outs[w], o)
			}
		}(w, cl)
	}
	pr := &phaseResult{rate: rate}
	start := time.Now()
	id := 0
	for t := r.ExpFloat64() / rate; t < dur.Seconds(); t += r.ExpFloat64() / rate {
		due := start.Add(time.Duration(t * 1e9))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		pr.lateness = append(pr.lateness, float64(time.Since(due))/1e6)
		id++
		queue <- request{id: id, due: due, p: s.payloads[r.IntN(len(s.payloads))], decompress: r.IntN(2) == 1}
	}
	close(queue)
	wg.Wait()
	pr.drain = time.Since(start.Add(dur))
	for _, o := range outs {
		pr.outs = append(pr.outs, o...)
	}
	sort.Slice(pr.outs, func(i, j int) bool { return pr.outs[i].due.Before(pr.outs[j].due) })
	res.Attempted += len(pr.outs)
	return pr
}

// latencyQuantile is the median, over batches of batchSize requests in
// arrival order, of each batch's q-quantile of latency from the due time
// (one batch when the phase is shorter), so a burst of outside load during
// part of a phase does not decide its tail.
func (p *phaseResult) latencyQuantile(q float64) float64 {
	l := p.latencies()
	var batches [][]float64
	for len(l) >= 2*batchSize {
		batches = append(batches, l[:batchSize])
		l = l[batchSize:]
	}
	return batchQuantile(append(batches, l), q)
}

// serveTotals sums request bytes and collects each request's throughput
// (payload bytes ÷ round trip) per operation.
type serveTotals struct {
	compIn, compOut, decOut int64
	compNs, decNs           float64
	compMBps, decMBps       []float64
}

func (t *serveTotals) add(p *phaseResult) {
	for _, o := range p.outs {
		if !o.ok {
			continue
		}
		if o.decompress {
			t.decOut += int64(o.in)
			t.decNs += float64(o.rtt)
			t.decMBps = append(t.decMBps, mbps(o.in, float64(o.rtt)))
		} else {
			t.compIn += int64(o.in)
			t.compOut += int64(o.out)
			t.compNs += float64(o.rtt)
			t.compMBps = append(t.compMBps, mbps(o.in, float64(o.rtt)))
		}
	}
}

// rungPasses applies the saturation rule of the rate ladder: the p99
// latency meets the limit and the backlog drained within the limit after
// the last arrival.
func rungPasses(p *phaseResult, limitMs float64) bool {
	l := p.latencies()
	return len(l) > 0 && quantile(l, 0.99) <= limitMs && float64(p.drain)/1e6 <= limitMs
}

// runServe is the untraced serve run: a phase at the lo rate, one at the
// hi rate, then the rate ladder up to the first rung that misses the
// latency limit or leaves a backlog.
func runServe(set *serveSet, res *Result, sz sizes, seed uint64, seconds int) {
	r := rand.New(rand.NewPCG(seed, 0x6c6f6164))
	total := time.Duration(seconds) * time.Second
	loDur, hiDur := total/4, total*9/20
	runtime.GC()
	m0 := readMem()
	lo := set.phase(r, sz.loRate, loDur, res, nil)
	hi := set.phase(r, sz.hiRate, hiDur, res, nil)
	m1 := readMem()
	var t serveTotals
	t.add(lo)
	t.add(hi)
	// On serve the throughputs are medians over requests: the sum over
	// requests would follow the few largest ratio-mode payloads and any
	// stall of the shared host.
	res.Metrics.set("compress_mbps", median(t.compMBps), len(t.compMBps))
	res.Metrics.set("decompress_mbps", median(t.decMBps), len(t.decMBps))
	res.Metrics.set("ratio", ratioOf(float64(t.compIn), float64(t.compOut)), len(t.compMBps))
	res.Metrics.set("alloc_b_per_b", ratioOf(float64(m1.TotalAlloc-m0.TotalAlloc), float64(t.compIn+t.decOut)), len(t.compMBps)+len(t.decMBps))
	for _, ph := range []struct {
		name string
		p    *phaseResult
		dur  time.Duration
	}{{"lo", lo, loDur}, {"hi", hi, hiDur}} {
		l := ph.p.latencies()
		res.Metrics.set("serve_"+ph.name+"_p50_ms", ph.p.latencyQuantile(0.5), len(l))
		res.Metrics.set("serve_"+ph.name+"_p99_ms", ph.p.latencyQuantile(0.99), len(l))
		res.Inputs = append(res.Inputs, fmt.Sprintf("open loop %s: Poisson %.0f req/s for %.1f s, %d requests, generator late p99 %.3f ms",
			ph.name, ph.p.rate, ph.dur.Seconds(), len(l), quantile(ph.p.lateness, 0.99)))
	}
	res.Metrics.set("lat_p50_us", hi.latencyQuantile(0.5)*1e3, len(hi.outs))
	res.Metrics.set("lat_p90_us", hi.latencyQuantile(0.9)*1e3, len(hi.outs))

	rungDur := (total - loDur - hiDur) / time.Duration(len(sz.ladder))
	best, n := 0.0, 0
	for _, rate := range sz.ladder {
		p := set.phase(r, rate, rungDur, res, nil)
		n += len(p.outs)
		pass := rungPasses(p, sz.latLimitMs)
		res.Inputs = append(res.Inputs, fmt.Sprintf("ladder rung %.0f req/s: %d requests, p99 %.3f ms, drain %.3f ms, pass %v",
			rate, len(p.outs), quantile(p.latencies(), 0.99), float64(p.drain)/1e6, pass))
		if !pass {
			break
		}
		best = rate
	}
	res.Metrics.set("serve_max_rps", best, n)
	res.Inputs = append(res.Inputs, fmt.Sprintf("latency limit %.0f ms at p99, %d connections", sz.latLimitMs, len(set.clients)))
	res.na("ra_p50_us", "archive workloads only")
	res.na("ra_p99_us", "archive workloads only")
}

// serveWorkload runs the serve workload, untraced or traced.
func serveWorkload(res *Result, sz sizes, seed uint64, seconds int, tr *tracer, smoke bool) ([]string, error) {
	reps := sz.setupReps
	if tr != nil {
		reps = 1
	}
	set, err := timedSetups(res, reps, func() (*serveSet, error) { return setupServe(seed, sz) },
		func(s *serveSet) { s.close() })
	if err != nil {
		return nil, err
	}
	defer set.close()
	res.Inputs = append(res.Inputs, set.inputs...)
	if smoke {
		seconds = 1
	}
	if tr == nil {
		runServe(set, res, sz, seed, seconds)
		res.Metrics.set("error_share", ratioOf(float64(res.Failed), float64(res.Attempted)), res.Attempted)
		return nil, nil
	}
	return traceServe(set, res, sz, seed, seconds, tr)
}

// traceServe is the traced serve run: an untraced phase at the hi rate as
// the baseline, the same phase traced with the server's stats sampled,
// then layer replays of every payload.
func traceServe(set *serveSet, res *Result, sz sizes, seed uint64, seconds int, tr *tracer) ([]string, error) {
	m := res.Metrics
	dur := time.Duration(seconds) * time.Second * 3 / 10
	runtime.GC()
	g0 := readGC()
	base := set.phase(rand.New(rand.NewPCG(seed, 0x6c6f6164)), sz.hiRate, dur, res, nil)
	g1 := readGC()
	var bt serveTotals
	bt.add(base)
	m.set("runtime.gc_per_op", ratioOf(g1.cycles-g0.cycles, float64(len(base.outs))), len(base.outs))
	m.set("runtime.gc_cpu_share", ratioOf(g1.gcCPU-g0.gcCPU, g1.totalCPU-g0.totalCPU), 1)
	m.set("harness.gen_late_p99_ms", quantile(base.lateness, 0.99), len(base.lateness))

	// Sample the number of requests executing in the server while the
	// traced phase runs.
	stop := make(chan struct{})
	sampled := make(chan []float64)
	go func() {
		var xs []float64
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				sampled <- xs
				return
			case <-tick.C:
				xs = append(xs, float64(set.srv.StatsSnapshot().Inflight))
			}
		}
	}()
	s0 := set.srv.StatsSnapshot()
	traced := set.phase(rand.New(rand.NewPCG(seed, 0x6c6f6164)), sz.hiRate, dur, res, tr)
	s1 := set.srv.StatsSnapshot()
	close(stop)
	inflight := <-sampled
	var tt serveTotals
	tt.add(traced)
	m.set("harness.trace_overhead", ratioOf(median(tt.compMBps), median(bt.compMBps)), len(tt.compMBps))

	var codecUs, codecN float64
	for _, name := range []string{"compress", "decompress"} {
		a, b := s0.Ops[name], s1.Ops[name]
		codecUs += b.AvgLatencyUs*float64(b.Requests) - a.AvgLatencyUs*float64(a.Requests)
		codecN += float64(b.Requests - a.Requests)
	}
	codecAvg := ratioOf(codecUs, codecN)
	m.set("server.codec_avg_us", codecAvg, int(codecN))
	nReq := len(tt.compMBps) + len(tt.decMBps)
	m.set("server.noncodec_avg_us", ratioOf(tt.compNs+tt.decNs, float64(nReq))/1e3-codecAvg, nReq)
	m.set("server.busy_share", ratioOf(float64(s1.BusyRejections-s0.BusyRejections), float64(len(traced.outs))), len(traced.outs))
	m.set("server.inflight_mean", ratioOf(sumF(inflight), float64(len(inflight))), len(inflight))

	// Layer replays of every payload, as the server's codec sees it.
	var ops []*op
	for i, p := range set.payloads {
		ops = append(ops, &op{name: fmt.Sprintf("payload %d %s %s", i, p.alg, mib(int64(len(p.data)))), alg: p.alg, in: p.data})
	}
	agg := &layerAgg{}
	e2e := &e2eTracer{tr: tr}
	opBase := len(traced.outs) + 1
	var sp, dp [][]byte
	for i, o := range ops {
		res.Attempted++
		if c, err := e2e.compress(opBase+i, o); err != nil || !bytes.Equal(c, set.payloads[i].comp) {
			res.fail("%s: compress differs: %v", o.name, err)
		}
		if err := replayOp(tr, opBase+i, o, set.payloads[i].comp, agg, res); err != nil {
			return nil, err
		}
		if o.alg == fpcompress.SPspeed || o.alg == fpcompress.SPratio {
			sp = append(sp, o.in)
		} else {
			dp = append(dp, o.in)
		}
	}
	agg.setLayerMetrics(m, len(ops), ratioOf(float64(e2e.mallocs), float64(len(ops))), e2e.tried, e2e.kept)
	if err := apiAndKernels(ops, sp, dp, sz, m, agg); err != nil {
		return nil, err
	}
	zeroLayers(m, res, "archive workloads only", "ra.open_us", "ra.chunks_per_read", "ra.chunk_decode_us")
	return agg.violations, nil
}
