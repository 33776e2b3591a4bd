package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"time"

	"fpcompress"
	"fpcompress/internal/container"
)

// The traced run measures each layer from outside: it calls the layer's
// public function again on the exact input the layer above handed it,
// and times the calls the container engine makes into the chunk codec
// through a wrapper with the codec's own interfaces.

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// gcSample reads the GC cycle count and the GC and total CPU seconds.
type gcSample struct{ cycles, gcCPU, totalCPU float64 }

func readGC() gcSample {
	s := []rtmetrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	val := func(v rtmetrics.Value) float64 {
		switch v.Kind() {
		case rtmetrics.KindUint64:
			return float64(v.Uint64())
		case rtmetrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return gcSample{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

// layerAgg sums per-layer measurements over the replayed ops of a run.
type layerAgg struct {
	preFwd, preInv    float64 // ns
	crc               float64 // ns, compress and decompress side
	containerSelf     float64 // ns, at Parallelism 1
	codec             float64 // ns in the engine's codec calls at Parallelism 1
	tP1, tPN          float64 // ns, container engine at 1 and GOMAXPROCS workers
	containerAlloc    float64 // bytes allocated by container.CompressAppend
	containerIn       float64 // bytes handed to container.CompressAppend
	rawChunks, chunks int
	parseUs           []float64
	price, schemeFwd  float64 // ns: selector.Predict pass; ForwardSchemeInto calls
	violations        []string
	opLines           []string
}

// crcPass replays container.ChecksumOf over every chunk of b three times
// and records the median pass as a child span of parent. With hot set,
// each chunk is first copied into a chunk-sized buffer outside the timed
// call, as the decoder checksums a chunk it has just written. It returns
// the median pass time and the spread of the three (max - min).
func crcPass(tr *tracer, opID, parent int, b []byte, cs int, hot bool) (float64, float64) {
	scratch := make([]byte, cs)
	var starts [3]int64
	ds := make([]float64, 3)
	for p := range ds {
		starts[p] = tr.now()
		for off := 0; off < len(b); off += cs {
			chunk := b[off:min(off+cs, len(b))]
			if hot {
				chunk = scratch[:copy(scratch, chunk)]
			}
			s := tr.now()
			container.ChecksumOf(chunk)
			ds[p] += float64(tr.now() - s)
		}
	}
	med := median(ds)
	p := slices.Index(ds, med)
	tr.add(opID, parent, "container.ChecksumOf", starts[p], starts[p]+int64(med), (len(b)+cs-1)/cs)
	return med, slices.Max(ds) - slices.Min(ds)
}

// checkSelf fails the run when a span's self time is negative beyond the
// spread of the replays subtracted from it.
func (agg *layerAgg) checkSelf(tr *tracer, id int, spread float64) float64 {
	self := tr.selfTimes()[id]
	if self < -spread {
		sp := tr.span(id)
		agg.violations = append(agg.violations,
			fmt.Sprintf("op %d %s: self time %.0f ns below -%.0f ns spread", sp.Op, sp.Name, self, spread))
	}
	return self
}

// replayOp replays one op layer by layer on the inputs each layer really
// receives, checks every replayed output against the end-to-end container
// ref (so Parallelism 1 and GOMAXPROCS are byte-identical), and adds the
// timings to agg.
func replayOp(tr *tracer, opID int, o *op, ref []byte, agg *layerAgg, res *Result) error {
	a, err := o.algorithm()
	if err != nil {
		return err
	}
	nproc := runtime.GOMAXPROCS(0)
	params := func(p int) container.Params {
		return container.Params{Parallelism: p, MaxDecoded: -1, Windowed: a.Windowed}
	}
	cs := container.DefaultChunkSize
	stream := o.in
	if a.Pre != nil {
		coldStart()
		s := tr.now()
		stream = a.Pre.ForwardInto(nil, o.in)
		e := tr.now()
		tr.add(opID, 0, "core.Pre.ForwardInto", s, e, 1)
		agg.preFwd += float64(e - s)
	}

	// Compress at Parallelism 1 with every codec call timed, then the CRC
	// replay; their sum leaves the engine's own time (bookkeeping, scatter,
	// header) as the span's self time. The codec calls include growing the
	// engine arena they append to.
	spans := &chunkSpans{tr: tr, op: opID}
	wc, err := wrapCodec(a.ChunkCodec(), spans)
	if err != nil {
		return err
	}
	coldStart()
	s := tr.now()
	c1 := container.CompressAppend(nil, stream, byte(a.ID), wc, params(1))
	p1 := tr.add(opID, 0, "container.CompressAppend.P1", s, tr.now(), 1)
	tr.reparent(spans.ids, p1)
	codecFwd := 0.0
	for _, id := range spans.ids {
		codecFwd += tr.span(id).dur()
	}
	agg.codec += codecFwd
	if a.Select != nil {
		agg.schemeFwd += codecFwd
	}
	crc, spread := crcPass(tr, opID, p1, stream, cs, false)
	agg.crc += crc
	agg.containerSelf += agg.checkSelf(tr, p1, spread)
	agg.tP1 += tr.span(p1).dur()
	res.Attempted++
	if !bytes.Equal(c1, ref) {
		res.fail("%s: container at Parallelism 1 differs from the end-to-end container", o.name)
	}

	coldStart()
	m0 := readMem()
	s = tr.now()
	cn := container.CompressAppend(nil, stream, byte(a.ID), a.ChunkCodec(), params(nproc))
	pn := tr.add(opID, 0, "container.CompressAppend.PN", s, tr.now(), 1)
	m1 := readMem()
	agg.tPN += tr.span(pn).dur()
	agg.containerAlloc += float64(m1.TotalAlloc - m0.TotalAlloc)
	agg.containerIn += float64(len(stream))
	res.Attempted++
	if !bytes.Equal(cn, ref) {
		res.fail("%s: container at Parallelism %d differs from the end-to-end container", o.name, nproc)
	}

	if a.Select != nil {
		s := tr.now()
		n := 0
		for off := 0; off < len(stream); off += cs {
			a.Select.Predict(stream[off:min(off+cs, len(stream))])
			n++
		}
		e := tr.now()
		tr.add(opID, 0, "selector.Predict", s, e, n)
		agg.price += float64(e - s)
	}

	// Parse, raw-fallback share.
	var parse []float64
	var h *container.Header
	for i := 0; i < 5; i++ {
		s := time.Now()
		h, err = container.Parse(ref)
		parse = append(parse, float64(time.Since(s))/1e3)
		if err != nil {
			return fmt.Errorf("%s: parse: %w", o.name, err)
		}
	}
	agg.parseUs = append(agg.parseUs, median(parse))
	for i := 0; i < h.ChunkCount; i++ {
		if _, raw, err := h.ChunkPayload(i); err == nil && raw {
			agg.rawChunks++
		}
	}
	agg.chunks += h.ChunkCount

	// Decompress at Parallelism 1 (codec calls timed) and GOMAXPROCS.
	spans = &chunkSpans{tr: tr, op: opID}
	if wc, err = wrapCodec(a.ChunkCodec(), spans); err != nil {
		return err
	}
	coldStart()
	s = tr.now()
	d1, err := container.DecompressAppend(nil, ref, wc, params(1))
	p1d := tr.add(opID, 0, "container.DecompressAppend.P1", s, tr.now(), 1)
	tr.reparent(spans.ids, p1d)
	for _, id := range spans.ids {
		agg.codec += tr.span(id).dur()
	}
	res.Attempted++
	if err != nil || !bytes.Equal(d1, stream) {
		res.fail("%s: container decode at Parallelism 1 wrong: %v", o.name, err)
	}
	crc, spread = crcPass(tr, opID, p1d, stream, cs, true)
	agg.crc += crc
	agg.containerSelf += agg.checkSelf(tr, p1d, spread)
	agg.tP1 += tr.span(p1d).dur()

	coldStart()
	s = tr.now()
	dn, err := container.DecompressAppend(nil, ref, a.ChunkCodec(), params(nproc))
	pnd := tr.add(opID, 0, "container.DecompressAppend.PN", s, tr.now(), 1)
	agg.tPN += tr.span(pnd).dur()
	res.Attempted++
	if err != nil || !bytes.Equal(dn, stream) {
		res.fail("%s: container decode at Parallelism %d wrong: %v", o.name, nproc, err)
	}
	if a.Pre != nil && err == nil {
		s := tr.now()
		out, err := a.Pre.InverseInto(nil, dn, -1)
		e := tr.now()
		tr.add(opID, 0, "core.Pre.InverseInto", s, e, 1)
		agg.preInv += float64(e - s)
		res.Attempted++
		if err != nil || !bytes.Equal(out, o.in) {
			res.fail("%s: pre-stage inverse wrong: %v", o.name, err)
		}
	}
	agg.opLines = append(agg.opLines, fmt.Sprintf("%s: core.pre_fwd_s %.4f core.pre_inv_s %.4f compress container P1 %.4f s (codec calls %.4f s) PN %.4f s container.alloc_b_per_b %.1f",
		o.name, sumNamed(tr, opID, "core.Pre.ForwardInto")/1e9, sumNamed(tr, opID, "core.Pre.InverseInto")/1e9,
		tr.span(p1).dur()/1e9, codecFwd/1e9, tr.span(pn).dur()/1e9, ratioOf(float64(m1.TotalAlloc-m0.TotalAlloc), float64(len(stream)))))
	return nil
}

// sumNamed sums the durations of op's spans with the given name.
func sumNamed(tr *tracer, opID int, name string) float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	total := 0.0
	for i := range tr.spans {
		if tr.spans[i].Op == opID && tr.spans[i].Name == name {
			total += tr.spans[i].dur()
		}
	}
	return total
}

// setLayerMetrics turns the replay sums into the core, container and
// selector metrics.
func (agg *layerAgg) setLayerMetrics(m metrics, nOps int, allocsPerOp float64, tried, kept uint64) {
	m.set("core.pre_fwd_s", agg.preFwd/1e9, nOps)
	m.set("core.pre_inv_s", agg.preInv/1e9, nOps)
	m.set("core.allocs_per_op", allocsPerOp, nOps)
	m.set("container.crc_s", agg.crc/1e9, nOps)
	m.set("container.self_s", agg.containerSelf/1e9, nOps)
	m.set("container.codec_s", agg.codec/1e9, nOps)
	m.set("container.scaling_x", ratioOf(agg.tP1, agg.tPN), nOps)
	m.set("container.alloc_b_per_b", ratioOf(agg.containerAlloc, agg.containerIn), nOps)
	m.set("container.raw_share", ratioOf(float64(agg.rawChunks), float64(agg.chunks)), agg.chunks)
	m.set("container.parse_us", median(agg.parseUs), len(agg.parseUs))
	m.set("selector.price_s", agg.price/1e9, nOps)
	m.set("selector.price_share", ratioOf(agg.price, agg.schemeFwd), nOps)
	m.set("selector.reencode_tried", float64(tried), nOps)
	m.set("selector.reencode_kept_share", ratioOf(float64(kept), float64(tried)), int(tried))
}

// apiSelf measures the public API's own cost per call: fpcompress.Compress
// against the core call it wraps, alternated in pairs on one chunk of
// every op so the codec work is small next to the difference. It returns
// the median difference and its interquartile range in microseconds.
func apiSelf(ops []*op, pairs int) (float64, float64, error) {
	var diffs []float64
	for _, o := range ops {
		a, err := o.algorithm()
		if err != nil {
			return 0, 0, err
		}
		x := o.in[:min(len(o.in), container.DefaultChunkSize)]
		p := container.Params{MaxDecoded: -1}
		want := a.CompressAppend(nil, x, p)
		for i := 0; i < pairs; i++ {
			var tAPI, tCore time.Duration
			for j := 0; j < 2; j++ {
				if (i+j)%2 == 0 {
					s := time.Now()
					c, err := fpcompress.Compress(o.alg, x, o.options(0))
					tAPI = time.Since(s)
					if err != nil || !bytes.Equal(c, want) {
						return 0, 0, fmt.Errorf("%s: api and core containers differ: %v", o.name, err)
					}
				} else {
					s := time.Now()
					a.CompressAppend(nil, x, p)
					tCore = time.Since(s)
				}
			}
			diffs = append(diffs, float64(tAPI-tCore)/1e3)
		}
	}
	return median(diffs), iqr(diffs), nil
}

// apiAndKernels measures the API's self time on ops and the kernel rows on
// the workload's chunks; a self time below minus its spread is recorded as
// a violation.
func apiAndKernels(ops []*op, sp, dp [][]byte, sz sizes, m metrics, agg *layerAgg) error {
	self, spread, err := apiSelf(ops, sz.apiPairs)
	if err != nil {
		return err
	}
	if self < -spread {
		agg.violations = append(agg.violations, fmt.Sprintf("api self time %.3f us below -%.3f us spread", self, spread))
	}
	m.set("api.self_us", self, len(ops)*sz.apiPairs)
	return kernelMetrics(chunkSets(sp, dp, sz), sz.kernelReps, m)
}

// raReplay opens every random-access container of the run and replays
// seeded reads chunk by chunk through Header.DecompressChunkLimit.
func raReplay(tr *tracer, ops []*op, refs [][]byte, r *rand.Rand, reads int, m metrics, res *Result) error {
	var opens, decodes []float64
	chunksTouched, nReads := 0, 0
	for i, o := range ops {
		if !o.randomAccess() {
			continue
		}
		for k := 0; k < 20; k++ {
			s := time.Now()
			if _, err := fpcompress.OpenRandomAccess(refs[i], nil); err != nil {
				return fmt.Errorf("%s: open: %w", o.name, err)
			}
			opens = append(opens, float64(time.Since(s))/1e3)
		}
		a, err := o.algorithm()
		if err != nil {
			return err
		}
		h, err := container.Parse(refs[i])
		if err != nil {
			return err
		}
		codec := a.ChunkCodec()
		cs := h.ChunkSize
		for k := 0; k < reads; k++ {
			size := min(4<<10+r.IntN(60<<10+1), len(o.in))
			off := r.IntN(len(o.in) - size + 1)
			rs := tr.now()
			var kids []int
			for ci := off / cs; ci <= (off+size-1)/cs; ci++ {
				s := tr.now()
				dec, err := h.DecompressChunkLimit(ci, codec, container.DefaultMaxDecoded)
				e := tr.now()
				kids = append(kids, tr.add(i+1, 0, "container.Header.DecompressChunkLimit", s, e, 1))
				decodes = append(decodes, float64(e-s)/1e3)
				chunksTouched++
				res.Attempted++
				if err != nil || !bytes.Equal(dec, o.in[ci*cs:min((ci+1)*cs, len(o.in))]) {
					res.fail("%s: chunk %d decodes wrong: %v", o.name, ci, err)
				}
			}
			tr.reparent(kids, tr.add(i+1, 0, "ra.read", rs, tr.now(), 1))
			nReads++
		}
	}
	m.set("ra.open_us", median(opens), len(opens))
	m.set("ra.chunks_per_read", ratioOf(float64(chunksTouched), float64(nReads)), nReads)
	m.set("ra.chunk_decode_us", ratioOf(sumF(decodes), float64(len(decodes))), len(decodes))
	return nil
}

func sumF(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// zeroLayers sets the metrics of layers a workload never reaches to 0,
// with the reason in the readable report.
func zeroLayers(m metrics, res *Result, why string, names ...string) {
	for _, n := range names {
		m.set(n, 0, 0)
		res.na(n, why)
	}
}
