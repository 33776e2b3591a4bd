package transforms

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"fpcompress/internal/simd"
	"fpcompress/internal/wordio"
)

// fcmWindow is how many preceding pairs (in sorted order) are examined for a
// matching earlier occurrence of the same value, per paper §3.2.
const fcmWindow = 4

// fcmParallelMin is the word count above which the decoder switches to the
// parallel union-find reconstruction.
const fcmParallelMin = 1 << 16

// FCM implements the Finite Context Method transformation (paper §3.2,
// Figure 6), the first stage of DPratio and the paper's GPU-friendly
// replacement for FPC's per-thread hash tables. For every 64-bit word it hashes the
// three prior words, sorts the (hash, index) pairs, and checks whether one
// of the four preceding pairs in sorted order carries the same hash and
// refers to an equal value — i.e. the same value was seen earlier in the
// same context. Matches are encoded as a backward distance; misses keep the
// raw value. The output is a value array and a distance array (each exactly
// one word per input word, so the stage doubles the data), which compress
// far better than the input: half the entries are zero and repeated doubles
// have become small integers.
//
// Unlike every other stage, FCM runs over the whole input rather than per
// 16 kB chunk (paper §3: "Except for FCM, all stages ... operate on chunks
// of 16 kilobytes"), because its value is finding repeats that are far
// apart.
//
// Encoded form: a fixed 8-byte little-endian decoded length (fixed so the
// arrays stay 8-byte aligned for the chunked stages that follow), the value
// array, the distance array, then any trailing bytes that did not fill a
// word.
//
// Window overrides the sorted-order match window for ablation experiments
// (0 = the paper's 4). The window only affects which matches the encoder
// finds; decoding is window-independent, so all settings interoperate.
//
// Table selects the direct-mapped hash-table encoder instead of the sorted
// pairs: one last-occurrence slot per hash bucket (FPC-style), probed and
// updated in a single O(n) pass with no sort. The windowed (per-chunk)
// DPratio mode uses it — per-chunk inputs are small enough that the table
// stays L1-resident and the sort would dominate. The table only changes
// which matches the encoder finds, so its output decodes with the same
// window-independent decoder, but the bytes differ from the sorted
// encoder's: Table is part of the pipeline identity wherever outputs are
// pinned.
type FCM struct {
	Window int
	Table  bool
}

func (f FCM) window() int {
	if f.Window <= 0 {
		return fcmWindow
	}
	return f.Window
}

// fcmHeaderLen is the fixed size of the decoded-length prefix.
const fcmHeaderLen = 8

// Name implements Transform. The table encoder is named apart from the
// sorted one: the two emit different bytes for the same input, so bench
// rows and stage listings must not conflate them.
func (f FCM) Name() string {
	if f.Table {
		return "FCM64T"
	}
	return "FCM64"
}

// EncodedCap reports the largest ForwardInto output size for a decoded
// input of n bytes (fixed header plus doubled word arrays plus the verbatim
// tail). Decoders that bound the final decoded size use it to scale the
// budget for the intermediate FCM stream.
func (FCM) EncodedCap(n int) int { return fcmHeaderLen + 2*n }

// fcmHash hashes the three words preceding position i (missing ones are 0).
func fcmHash(v1, v2, v3 uint64) uint64 {
	return wordio.Mix64(v1 ^ bits.RotateLeft64(v2, 23) ^ bits.RotateLeft64(v3, 47))
}

// fcmHashBlockLen is the batch size for the block-wise context hashing:
// big enough to amortize the simd kernel, small enough that the hash
// scratch stays cache-resident even for whole-input encodes.
const fcmHashBlockLen = 4096

// fcmHashBlock fills hw[j] with the context hash of position start+j of sw
// for start >= 3 (all three predecessors real), through the simd batch
// kernel when dispatched. The scalar loop is the reference; both produce
// fcmHash exactly, so encoder output is path-independent.
func fcmHashBlock(hw []uint64, sw []uint64, start int) {
	if simd.FCMHash64(hw, sw[start-3:]) {
		return
	}
	for j := range hw {
		i := start + j
		hw[j] = fcmHash(sw[i-1], sw[i-2], sw[i-3])
	}
}

// fcmTableBits sizes the direct-mapped last-occurrence table: 1<<12 slots
// (16 kB of int32) holds a 16 kB chunk's 2048 words with few collisions
// and clears with one memclr per encode.
const fcmTableBits = 12

// fcmTablePool recycles the table encoder's last-occurrence slots.
var fcmTablePool = sync.Pool{New: func() any {
	t := make([]int32, 1<<fcmTableBits)
	return &t
}}

// fcmPair couples a context hash with the input index it was computed at.
type fcmPair struct {
	hash uint64
	idx  uint32
}

// fcmPairPool recycles the encoder's (hash, index) array and its radix-sort
// double buffer.
var fcmPairPool = sync.Pool{New: func() any { return new([]fcmPair) }}

func pooledPairs(p *[]fcmPair, n int) []fcmPair {
	s := *p
	if cap(s) < n {
		s = make([]fcmPair, n)
		*p = s
	}
	return s[:n]
}

// fcmWordPool recycles the parallel decoder's mutable value/distance
// copies.
var fcmWordPool = sync.Pool{New: func() any { return new([]uint64) }}

func pooledWords(p *[]uint64, n int) []uint64 {
	s := *p
	if cap(s) < n {
		s = make([]uint64, n)
		*p = s
	}
	return s[:n]
}

// radixSortPairs sorts pairs by hash (stably, so equal hashes keep ascending
// index order) using an LSD radix sort with 8-bit digits; tmp is the
// caller-supplied double buffer (same length as pairs).
func radixSortPairs(pairs, tmp []fcmPair) {
	n := len(pairs)
	if n < 2 {
		return
	}
	src, dst := pairs, tmp
	for shift := uint(0); shift < 64; shift += 8 {
		var count [257]int
		for i := range src {
			count[int(byte(src[i].hash>>shift))+1]++
		}
		// Skip passes where every key shares the digit.
		allSame := false
		for d := 0; d < 256; d++ {
			if count[d+1] == n {
				allSame = true
				break
			}
		}
		if allSame {
			continue
		}
		for d := 1; d < 257; d++ {
			count[d] += count[d-1]
		}
		for i := range src {
			d := byte(src[i].hash >> shift)
			dst[count[d]] = src[i]
			count[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &pairs[0] {
		copy(pairs, src)
	}
}

// ForwardInto implements Transform (see the package comment for the dst
// ownership contract). The value and distance arrays are written straight
// into the output region; the (hash, index) pairs and the radix-sort double
// buffer are pooled.
func (f FCM) ForwardInto(dst, src []byte) []byte {
	if f.Table {
		return f.forwardTable(dst, src)
	}
	window := f.window()
	n := len(src) / 8
	tail := src[n*8:]

	pp, tp := fcmPairPool.Get().(*[]fcmPair), fcmPairPool.Get().(*[]fcmPair)
	defer fcmPairPool.Put(pp)
	defer fcmPairPool.Put(tp)
	pairs := pooledPairs(pp, n)
	sw, swOK := wordio.View64(src)
	if swOK {
		var v1, v2, v3 uint64
		head := n
		if head > 3 {
			head = 3
		}
		for i := 0; i < head; i++ {
			pairs[i] = fcmPair{hash: fcmHash(v1, v2, v3), idx: uint32(i)}
			v1, v2, v3 = sw[i], v1, v2
		}
		// Positions >= 3 have three real predecessors; hash them in
		// cache-resident blocks through the batch kernel.
		hp := fcmWordPool.Get().(*[]uint64)
		hw := pooledWords(hp, fcmHashBlockLen)
		for off := 3; off < n; off += fcmHashBlockLen {
			m := n - off
			if m > fcmHashBlockLen {
				m = fcmHashBlockLen
			}
			fcmHashBlock(hw[:m], sw, off)
			for j := 0; j < m; j++ {
				pairs[off+j] = fcmPair{hash: hw[j], idx: uint32(off + j)}
			}
		}
		fcmWordPool.Put(hp)
	} else {
		var v1, v2, v3 uint64
		for i := 0; i < n; i++ {
			pairs[i] = fcmPair{hash: fcmHash(v1, v2, v3), idx: uint32(i)}
			v1, v2, v3 = wordio.U64(src, i), v1, v2
		}
	}
	radixSortPairs(pairs, pooledPairs(tp, n))

	base := len(dst)
	dst = grow(dst, fcmHeaderLen+2*n*8+len(tail))
	out := dst[base:]
	wordio.PutU64(out, 0, uint64(len(src)))
	vals := out[fcmHeaderLen : fcmHeaderLen+n*8]
	dists := out[fcmHeaderLen+n*8 : fcmHeaderLen+2*n*8]
	// Each input word writes exactly one of the two arrays; the other entry
	// must read as zero, so clear both first.
	clear(vals)
	clear(dists)
	vw, okV := wordio.View64(vals)
	dw, okD := wordio.View64(dists)
	if swOK && okV && okD {
		for p := 0; p < n; p++ {
			cur := pairs[p]
			curv := sw[cur.idx]
			matched := false
			for q := p - 1; q >= 0 && q >= p-window; q-- {
				prev := pairs[q]
				if prev.hash != cur.hash {
					break // sorted: earlier pairs cannot match either
				}
				if sw[prev.idx] == curv {
					dw[cur.idx] = uint64(cur.idx - prev.idx)
					matched = true
					break
				}
			}
			if !matched {
				vw[cur.idx] = curv
			}
		}
	} else {
		for p := 0; p < n; p++ {
			cur := pairs[p]
			matched := false
			for q := p - 1; q >= 0 && q >= p-window; q-- {
				prev := pairs[q]
				if prev.hash != cur.hash {
					break // sorted: earlier pairs cannot match either
				}
				if wordio.U64(src, int(prev.idx)) == wordio.U64(src, int(cur.idx)) {
					wordio.PutU64(dists, int(cur.idx), uint64(cur.idx-prev.idx))
					matched = true
					break
				}
			}
			if !matched {
				wordio.PutU64(vals, int(cur.idx), wordio.U64(src, int(cur.idx)))
			}
		}
	}
	copy(out[fcmHeaderLen+2*n*8:], tail)
	return dst
}

// forwardTable is the Table-mode encoder: a direct-mapped last-occurrence
// table indexed by the top hash bits, probed and updated once per word. A
// slot holds index+1 (0 = empty) so the per-encode reset is a memclr. Any
// equal-value backward reference is a legal distance under the format, so
// the collision check is just value equality.
func (f FCM) forwardTable(dst, src []byte) []byte {
	n := len(src) / 8
	tail := src[n*8:]
	base := len(dst)
	dst = grow(dst, fcmHeaderLen+2*n*8+len(tail))
	out := dst[base:]
	wordio.PutU64(out, 0, uint64(len(src)))
	vals := out[fcmHeaderLen : fcmHeaderLen+n*8]
	dists := out[fcmHeaderLen+n*8 : fcmHeaderLen+2*n*8]
	// Each input word writes exactly one of the two arrays; the other entry
	// must read as zero, so clear both first.
	clear(vals)
	clear(dists)

	tp := fcmTablePool.Get().(*[]int32)
	defer fcmTablePool.Put(tp)
	table := *tp
	clear(table)
	hp := fcmWordPool.Get().(*[]uint64)
	defer fcmWordPool.Put(hp)
	hw := pooledWords(hp, n)
	sw, swOK := wordio.View64(src)
	vw, okV := wordio.View64(vals)
	dw, okD := wordio.View64(dists)
	if swOK && okV && okD {
		var v1, v2, v3 uint64
		head := n
		if head > 3 {
			head = 3
		}
		for i := 0; i < head; i++ {
			hw[i] = fcmHash(v1, v2, v3)
			v1, v2, v3 = sw[i], v1, v2
		}
		if n > 3 {
			fcmHashBlock(hw[3:], sw, 3)
		}
		for i, v := range sw {
			slot := hw[i] >> (64 - fcmTableBits)
			if j := table[slot]; j != 0 && sw[j-1] == v {
				dw[i] = uint64(i + 1 - int(j))
			} else {
				vw[i] = v
			}
			table[slot] = int32(i + 1)
		}
	} else {
		var v1, v2, v3 uint64
		for i := 0; i < n; i++ {
			v := wordio.U64(src, i)
			slot := fcmHash(v1, v2, v3) >> (64 - fcmTableBits)
			if j := table[slot]; j != 0 && wordio.U64(src, int(j-1)) == v {
				wordio.PutU64(dists, i, uint64(i+1-int(j)))
			} else {
				wordio.PutU64(vals, i, v)
			}
			table[slot] = int32(i + 1)
			v1, v2, v3 = v, v1, v2
		}
	}
	copy(out[fcmHeaderLen+2*n*8:], tail)
	return dst
}

// InverseInto implements Transform (see the package comment for the dst
// ownership contract). FCM runs over the whole input (no chunk cap
// applies), but its decoded length can never exceed its encoded length, so
// allocation stays intrinsically bounded by the input size. The sequential
// path decodes straight from enc into dst with no intermediate word slices;
// the parallel path needs mutable value/distance arrays, which come from a
// pool.
func (FCM) InverseInto(dst, enc []byte, maxDecoded int) ([]byte, error) {
	if len(enc) < fcmHeaderLen {
		return nil, corruptf("FCM: missing length prefix")
	}
	declen64 := wordio.U64(enc, 0)
	hn := fcmHeaderLen
	// FCM doubles the data, so the decoded length can never exceed the
	// encoded length; this also keeps the arithmetic below overflow-free.
	if declen64 > uint64(len(enc)) {
		return nil, corruptf("FCM: decoded length %d exceeds encoded length %d", declen64, len(enc))
	}
	if maxDecoded >= 0 && declen64 > uint64(maxDecoded) {
		return nil, corruptf("FCM: decoded length %d exceeds budget %d", declen64, maxDecoded)
	}
	declen := int(declen64)
	n := declen / 8
	tailLen := declen - n*8
	if len(enc) < hn+2*n*8+tailLen {
		return nil, corruptf("FCM: truncated arrays")
	}
	valsB := enc[hn : hn+n*8]
	distsB := enc[hn+n*8 : hn+2*n*8]

	base := len(dst)
	dst = grow(dst, declen)
	out := dst[base:]
	if n >= fcmParallelMin && runtime.GOMAXPROCS(0) > 1 {
		vp, dp := fcmWordPool.Get().(*[]uint64), fcmWordPool.Get().(*[]uint64)
		defer fcmWordPool.Put(vp)
		defer fcmWordPool.Put(dp)
		vals := pooledWords(vp, n)
		dists := pooledWords(dp, n)
		if vB, ok := wordio.View64(valsB); ok {
			copy(vals, vB)
		} else {
			for i := 0; i < n; i++ {
				vals[i] = wordio.U64(valsB, i)
			}
		}
		if dB, ok := wordio.View64(distsB); ok {
			copy(dists, dB)
		} else {
			for i := 0; i < n; i++ {
				dists[i] = wordio.U64(distsB, i)
			}
		}
		if err := fcmDecodeParallelBytes(out, vals, dists); err != nil {
			return nil, err
		}
	} else if err := fcmInverseSeq(out, valsB, distsB, n); err != nil {
		return nil, err
	}
	copy(out[n*8:], enc[hn+2*n*8:hn+2*n*8+tailLen])
	return dst, nil
}

// fcmInverseSeq resolves distances in index order; every referenced word
// is already final in out when reached. When all three buffers can be
// aliased as words the chase runs entirely on uint64 slices; otherwise it
// falls back to the byte accessors.
func fcmInverseSeq(out, valsB, distsB []byte, n int) error {
	ow, okO := wordio.View64(out)
	vw, okV := wordio.View64(valsB)
	dw, okD := wordio.View64(distsB)
	if okO && okV && okD {
		for i := 0; i < n; i++ {
			d := dw[i]
			if d == 0 {
				ow[i] = vw[i]
				continue
			}
			if d > uint64(i) {
				return corruptf("FCM: distance %d exceeds index %d", d, i)
			}
			ow[i] = ow[i-int(d)]
		}
		return nil
	}
	for i := 0; i < n; i++ {
		d := wordio.U64(distsB, i)
		if d == 0 {
			wordio.PutU64(out, i, wordio.U64(valsB, i))
			continue
		}
		if d > uint64(i) {
			return corruptf("FCM: distance %d exceeds index %d", d, i)
		}
		wordio.PutU64(out, i, wordio.U64(out, i-int(d)))
	}
	return nil
}

// fcmDecodeSequential resolves distances in index order; every referenced
// value is already final when reached. (Reference implementation — the
// production sequential path in InverseInto decodes byte-to-byte; the
// equivalence tests compare the two.)
func fcmDecodeSequential(vals, dists []uint64) ([]uint64, error) {
	n := len(vals)
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		d := dists[i]
		if d == 0 {
			out[i] = vals[i]
			continue
		}
		if d > uint64(i) {
			return nil, corruptf("FCM: distance %d exceeds index %d", d, i)
		}
		out[i] = out[i-int(d)]
	}
	return out, nil
}

// fcmDecodeParallel runs the parallel reconstruction over word slices and
// returns the decoded words (kept for the sequential/parallel equivalence
// tests; the production path writes bytes via fcmDecodeParallelBytes).
// vals and dists are clobbered.
func fcmDecodeParallel(vals, dists []uint64) ([]uint64, error) {
	outB := make([]byte, len(vals)*8)
	if err := fcmDecodeParallelBytes(outB, vals, dists); err != nil {
		return nil, err
	}
	return wordio.Words64(outB, false), nil
}

// fcmDecodeParallelBytes is the paper's parallel "find" (union-find style)
// reconstruction: each worker follows non-zero distances until it reaches a
// resolved slot, then publishes its own value and clears its distance so
// other chains can stop there. The atomic store on the distance array is
// the release barrier making the preceding value write visible. Decoded
// words are written little-endian into outB (len >= 8*len(vals)); vals and
// dists are clobbered.
func fcmDecodeParallelBytes(outB []byte, vals, dists []uint64) error {
	n := len(vals)
	// Validate up front; workers then cannot walk out of bounds.
	for i, d := range dists {
		if d > uint64(i) {
			return corruptf("FCM: distance %d exceeds index %d", d, i)
		}
	}
	ow, owOK := wordio.View64(outB)
	workers := runtime.GOMAXPROCS(0)
	var next atomic.Int64
	const grain = 4096
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(grain)) - grain
				if lo >= n {
					return
				}
				hi := lo + grain
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					d := atomic.LoadUint64(&dists[i])
					if d == 0 {
						if owOK {
							ow[i] = vals[i]
						} else {
							wordio.PutU64(outB, i, vals[i])
						}
						continue
					}
					j := i - int(d)
					for {
						dj := atomic.LoadUint64(&dists[j])
						if dj == 0 {
							break
						}
						j -= int(dj)
					}
					v := vals[j]
					if owOK {
						ow[i] = v
					} else {
						wordio.PutU64(outB, i, v)
					}
					vals[i] = v
					atomic.StoreUint64(&dists[i], 0)
				}
			}
		}()
	}
	wg.Wait()
	return nil
}
