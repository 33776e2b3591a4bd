package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is not modified). It returns
// NaN for an empty sample so a missing measurement cannot pass the
// finiteness check as a plausible number.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// iqr is the distance between the first and third quartiles.
func iqr(xs []float64) float64 { return quantile(xs, 0.75) - quantile(xs, 0.25) }

// ratioOf divides, returning 0 for an empty denominator: per-layer shares
// of a layer the workload never reached are reported as 0.
func ratioOf(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// batchSize is the number of samples a batch quantile is taken over: 1000
// leaves ten samples beyond the 99th percentile.
const batchSize = 1000

// batchQuantile is the median over batches of each batch's q-quantile:
// a burst of load from outside the benchmark that slows one batch does
// not move it. Each batch should hold at least ten samples beyond q.
func batchQuantile(batches [][]float64, q float64) float64 {
	return quantileOverBatches(batches, q, 0.5)
}

// quietShare is the share of a run's batches, the quietest, that a
// ReadAt latency is taken from.
const quietShare = 0.1

// quietQuantile is the quietShare-quantile over batches of each batch's
// q-quantile: the q-quantile of ReadAt latency in the quietest tenth of the
// run. A ReadAt call decodes chunks that are not in the cache into freshly
// allocated buffers, and on a shared host its latency follows the load of
// the other tenants far more than a compress call does: with no page
// faults and no other load in the process, the batch medians of one run
// range from 41 to 65 us, and a run reads up to 40% slower than the one
// before it. The median over batches follows that load; the quietest
// batches follow it far less, while a change to the read path moves every
// batch.
func quietQuantile(batches [][]float64, q float64) float64 {
	return quantileOverBatches(batches, q, quietShare)
}

// quantileOverBatches is the over-quantile of the batches' q-quantiles.
func quantileOverBatches(batches [][]float64, q, over float64) float64 {
	qs := make([]float64, len(batches))
	for i, b := range batches {
		qs[i] = quantile(b, q)
	}
	return quantile(qs, over)
}
