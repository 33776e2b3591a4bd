package transforms

import (
	"encoding/binary"
	"math/bits"

	"fpcompress/internal/bitio"
	"fpcompress/internal/simd"
	"fpcompress/internal/wordio"
)

// This file holds the machinery shared by RAZE and RARE (paper §3.2,
// Figure 7). Both transforms split every 64-bit word into a top-k-bit piece
// and a bottom-(64-k)-bit piece, keep the bottoms verbatim (double-precision
// mantissa tails are close to random and incompressible), and eliminate
// "uninteresting" top pieces — all-zero pieces for RAZE, pieces identical to
// the previous word's for RARE — behind a one-bit-per-word bitmap that is
// itself compressed with the repeated repeat-elimination scheme from RZE.
//
// The adaptive part: k is chosen per chunk from a histogram of
// leading-zero-bit counts (RAZE) or leading-common-bit counts (RARE). Every
// word with >= k leading zeros/common bits contributes an eliminated piece,
// so with cnt[k] = |{i : lead[i] >= k}| the encoded size in bits is
//
//	n (bitmap) + (n-cnt[k])*k (kept pieces) + n*(64-k) (bottoms)
//	  = 65n - k*cnt[k]
//
// and k=0 (store everything, no bitmap) costs 64n. The k maximizing
// k*cnt[k] is computed from a prefix sum over the histogram bins — no need
// to try all splits against the data.

// leadZeros is RAZE's criterion: leading zero bits of each word. It is the
// reference model for computeLead (which fills a scratch slice straight
// from the chunk bytes) and is exercised directly by the split-model tests.
func leadZeros(words []uint64) []int {
	lead := make([]int, len(words))
	for i, v := range words {
		lead[i] = wordio.Clz64(v)
	}
	return lead
}

// computeLead fills lead (length n) with each word's eliminable-leading-bit
// count, reading the words straight out of src. common selects RARE's
// shared-with-predecessor criterion over RAZE's leading-zeros one.
func computeLead(lead []int, src []byte, n int, common bool) {
	if common {
		prev := uint64(0)
		for i := 0; i < n; i++ {
			v := wordio.U64(src, i)
			lead[i] = wordio.Clz64(v ^ prev)
			prev = v
		}
		return
	}
	for i := 0; i < n; i++ {
		lead[i] = wordio.Clz64(wordio.U64(src, i))
	}
}

// computeLeadWords is computeLead over an aliased word slice, accumulating
// the split-model histogram in the same pass so the encoder never rescans
// lead just to bin it (bestSplitHist consumes hist directly).
func computeLeadWords(lead []int, hist *[65]int, sw []uint64, common bool) {
	lead = lead[:len(sw)]
	if common {
		prev := uint64(0)
		for i, v := range sw {
			l := bits.LeadingZeros64(v ^ prev)
			lead[i] = l
			hist[l]++
			prev = v
		}
		return
	}
	for i, v := range sw {
		l := bits.LeadingZeros64(v)
		lead[i] = l
		hist[l]++
	}
}

// bestSplit returns the k in [0,64] minimizing the modeled encoded size.
func bestSplit(lead []int) int {
	var hist [65]int
	for _, l := range lead {
		hist[l]++
	}
	k, _ := bestSplitHist(&hist, len(lead))
	return k
}

// bestSplitHist is bestSplit over a precomputed histogram (hist[l] = words
// with exactly l eliminable leading bits, n = total words). It returns the
// chosen k and the modeled gain k*cnt[k] in bits.
func bestSplitHist(hist *[65]int, n int) (bestK, bestGain int) {
	// cnt[k] = number of words with lead >= k (suffix sum).
	cnt := 0
	bestK, bestGain = 0, n // k=0 costs 64n = 65n - n, i.e. gain n
	for k := 64; k >= 1; k-- {
		cnt += hist[k]
		// hist[64] counts words where all 64 bits are eliminable; they are
		// included in every cnt[k] for k <= 64.
		if gain := k * cnt; gain > bestGain || (gain == bestGain && k < bestK) {
			bestK, bestGain = k, gain
		}
	}
	return bestK, bestGain
}

// SplitModelBits exposes the adaptive transforms' size model for the
// auto-mode selector: given the leading-eliminable-bit histogram of an
// n-word chunk it returns the modeled encoded size in bits, 65n - k*cnt[k]
// for the same k bestSplit would choose (the model RAZE and RARE minimize).
func SplitModelBits(hist *[65]int, n int) int {
	_, gain := bestSplitHist(hist, n)
	return 65*n - gain
}

// adaptiveForwardInto encodes src for either RAZE or RARE (selected by
// common) appending to dst; all scratch (the lead counts and the
// elimination bitmap) is pooled, and the kept/bottom pieces are bit-packed
// directly into dst.
func adaptiveForwardInto(dst, src []byte, common bool) []byte {
	n := len(src) / 8
	tail := src[n*8:]
	if sw, ok := wordio.View64(src); ok {
		return adaptiveForwardWords(dst, sw, tail, common)
	}
	lp := intPool.Get().(*[]int)
	defer intPool.Put(lp)
	lead := growInts(lp, n)
	computeLead(lead, src, n, common)
	k := bestSplit(lead)

	dst = growCap(dst, len(src)+len(src)/8+32)
	dst = bitio.AppendUvarint(dst, uint64(len(src)))
	dst = append(dst, byte(k))
	if k == 0 {
		dst = append(dst, src[:n*8]...)
		return append(dst, tail...)
	}
	bp := getBuf()
	defer putBuf(bp)
	bm := pooledBytes(bp, (n+7)/8)
	clear(bm)
	nKept := 0
	for i := 0; i < n; i++ {
		if lead[i] < k { // top piece must be emitted
			bm[i>>3] |= 0x80 >> (i & 7)
			nKept++
		}
	}
	dst = appendRepeatBitmap(dst, bm)
	w := bitio.NewWriterBuf(dst)
	kw := uint(k)
	for i := 0; i < n; i++ {
		if lead[i] < k {
			w.WriteBits(wordio.U64(src, i)>>(64-kw), kw)
		}
	}
	w.Align()
	bw := uint(64 - k)
	for i := 0; i < n; i++ {
		w.WriteBits(wordio.U64(src, i), bw) // WriteBits keeps the low bw bits
	}
	dst = w.Bytes()
	return append(dst, tail...)
}

// adaptiveForwardWords is adaptiveForwardInto over an already-materialized
// word stream plus its verbatim tail: the word-view hot path, and the entry
// point the fused ratio kernels use to encode a diff stream that never
// existed as bytes. Byte-identical to the byte path above.
func adaptiveForwardWords(dst []byte, sw []uint64, tail []byte, common bool) []byte {
	n := len(sw)
	lp := intPool.Get().(*[]int)
	defer intPool.Put(lp)
	lead := growInts(lp, n)
	var hist [65]int
	computeLeadWords(lead, &hist, sw, common)
	k, _ := bestSplitHist(&hist, n)

	dst = growCap(dst, n*8+len(tail)+n+32)
	dst = bitio.AppendUvarint(dst, uint64(n*8+len(tail)))
	dst = append(dst, byte(k))
	if k == 0 {
		base := len(dst)
		dst = grow(dst, n*8)
		raw := dst[base:]
		for i, v := range sw {
			binary.LittleEndian.PutUint64(raw[i*8:], v)
		}
		return append(dst, tail...)
	}
	bp := getBuf()
	defer putBuf(bp)
	bm := pooledBytes(bp, (n+7)/8)
	clear(bm)
	wp := fcmWordPool.Get().(*[]uint64)
	defer fcmWordPool.Put(wp)
	scratch := pooledWords(wp, n)
	bw := uint(64 - k)
	nKept := 0
	for i, v := range sw {
		if lead[i] < k { // top piece must be emitted
			bm[i>>3] |= 0x80 >> (i & 7)
			scratch[nKept] = v >> bw
			nKept++
		}
	}
	dst = appendRepeatBitmap(dst, bm)
	// Kept top pieces then bottom pieces, each padded to a byte boundary —
	// the same layout PackWidth64 produces, without the intermediate
	// []uint64 slices.
	dst = adaptivePackFast(dst, sw, scratch, k, nKept)
	return append(dst, tail...)
}

// AdaptiveEncodeWords appends the RAZE (common=false) or RARE (common=true)
// encoding of the word stream sw followed by the verbatim tail — exactly
// the bytes ForwardInto would produce for the equivalent byte stream. The
// fused ratio kernels call it with their register-resident diff stream.
func AdaptiveEncodeWords(dst []byte, sw []uint64, tail []byte, common bool) []byte {
	return adaptiveForwardWords(dst, sw, tail, common)
}

// adaptivePackFast emits the kept-then-bottom bit layout with a
// register-resident accumulator flushed 32 bits at a time into pre-grown
// dst (see mplg.go for the nacc < 32 invariant); fields wider than 32 bits
// are written as two sub-32-bit halves. Byte-identical to the
// bitio.Writer reference path above.
//
// Both regions run through a dense word slice — kept top pieces already
// shifted down to their k-bit fields by the caller's bitmap pass (scratch,
// len(sw) capacity, first nKept entries valid), bottoms masked to 64-k
// bits in place — so the accumulator loop can run on the simd.Pack64
// kernel, which (like the MPLG loop it was built for) ORs whole source
// words and so requires every value to fit its field.
func adaptivePackFast(dst []byte, sw, scratch []uint64, k, nKept int) []byte {
	kw := uint(k)
	bw := uint(64 - k)
	start := len(dst)
	dst = grow(dst, (nKept*k+7)/8+(len(sw)*int(bw)+7)/8+8)
	buf := dst
	bp := start
	bp = packDense(buf, bp, scratch[:nKept], kw)
	if bw > 0 {
		mask := uint64(1)<<bw - 1
		for i, v := range sw {
			scratch[i] = v & mask
		}
		bp = packDense(buf, bp, scratch, bw)
	}
	return dst[:bp]
}

// packDense appends len(vals) width-bit fields (every value already fits
// its field) to buf at bit-aligned byte position bp and byte-aligns the
// stream, returning the new position. The simd accumulator kernel runs
// when dispatched; the scalar loop is the reference.
func packDense(buf []byte, bp int, vals []uint64, width uint) int {
	var acc uint64
	var nacc uint
	if nbp, a, na, ok := simd.Pack64(buf, bp, acc, nacc, vals, width, false); ok {
		return bitFinish(buf, nbp, a, na)
	}
	if width <= 32 {
		for _, v := range vals {
			acc = acc<<width | v
			nacc += width
			if nacc >= 32 {
				nacc -= 32
				binary.BigEndian.PutUint32(buf[bp:], uint32(acc>>nacc))
				bp += 4
				acc &= 1<<nacc - 1
			}
		}
	} else {
		hi := width - 32
		for _, v := range vals {
			acc = acc<<hi | v>>32
			nacc += hi
			if nacc >= 32 {
				nacc -= 32
				binary.BigEndian.PutUint32(buf[bp:], uint32(acc>>nacc))
				bp += 4
				acc &= 1<<nacc - 1
			}
			// Appending 32 bits always reaches the flush threshold, and
			// flushing subtracts the same 32, so nacc is unchanged.
			acc = acc<<32 | v&0xffffffff
			binary.BigEndian.PutUint32(buf[bp:], uint32(acc>>nacc))
			bp += 4
			acc &= 1<<nacc - 1
		}
	}
	return bitFinish(buf, bp, acc, nacc)
}

// adaptiveInverseInto decodes the common RAZE/RARE layout appending to dst;
// repeat selects the reconstruction rule for eliminated top pieces. All
// scratch is sized from declen, so validating it against the budget up
// front bounds the whole decode.
func adaptiveInverseInto(dst, enc []byte, repeat bool, maxDecoded int) ([]byte, error) {
	declen64, hn := bitio.Uvarint(enc)
	if hn == 0 || hn >= len(enc) {
		return nil, corruptf("RAZE/RARE: bad length prefix")
	}
	if err := checkDecodedLen("RAZE/RARE", declen64, maxDecoded); err != nil {
		return nil, err
	}
	declen := int(declen64)
	k := int(enc[hn])
	if k > 64 {
		return nil, corruptf("RAZE/RARE: split k=%d out of range", k)
	}
	body := enc[hn+1:]
	n := declen / 8
	tailLen := declen - n*8

	if k == 0 {
		if len(body) < declen {
			return nil, corruptf("RAZE/RARE: truncated raw body")
		}
		return append(dst, body[:declen]...), nil
	}

	bp := getBuf()
	defer putBuf(bp)
	bm, consumed, err := decodeRepeatBitmapScratch(bp, body, (n+7)/8)
	if err != nil {
		return nil, err
	}
	body = body[consumed:]
	// Count kept words a bitmap byte at a time, masking the pad bits of the
	// final partial byte (hostile input may set them).
	nKept := 0
	nb := n / 8
	for _, c := range bm[:nb] {
		nKept += bits.OnesCount8(c)
	}
	if n&7 != 0 {
		nKept += bits.OnesCount8(bm[nb] & byte(0xff<<(8-n&7)))
	}
	keptBytes := (nKept*k + 7) / 8
	if len(body) < keptBytes {
		return nil, corruptf("RAZE/RARE: truncated kept pieces")
	}
	kept := body[:keptBytes]
	body = body[keptBytes:]
	bw := uint(64 - k)
	botBytes := (n*int(bw) + 7) / 8
	if len(body) < botBytes {
		return nil, corruptf("RAZE/RARE: truncated bottom pieces")
	}
	bot := body[:botBytes]
	body = body[botBytes:]

	base := len(dst)
	dst = grow(dst, declen)
	out := dst[base:]
	// Both bit regions are exactly sized, so the reads below cannot run
	// short: no per-read truncation handling on either path.
	if ow, ok := wordio.View64(out); ok {
		adaptiveUnpackFast(ow, bm, kept, bot, k, repeat)
	} else {
		keptR := bitio.NewReader(kept)
		botR := bitio.NewReader(bot)
		prevTop := uint64(0)
		kw := uint(k)
		for i := 0; i < n; i++ {
			var top uint64
			if bm[i>>3]&(0x80>>(i&7)) != 0 {
				top, _ = keptR.ReadBits(kw)
			} else if repeat {
				top = prevTop // RARE: identical to the prior word's top piece
			} else {
				top = 0 // RAZE: eliminated pieces were all-zero
			}
			b := uint64(0)
			if bw > 0 {
				b, _ = botR.ReadBits(bw)
			}
			wordio.PutU64(out, i, top<<bw|b)
			prevTop = top
		}
	}
	if tailLen > 0 {
		if len(body) < tailLen {
			return nil, corruptf("RAZE/RARE: truncated tail")
		}
		copy(out[n*8:], body[:tailLen])
	}
	return dst, nil
}

// adaptiveUnpackFast reassembles the words through a 64-bit load window
// over a zero-padded pooled copy of the kept and bottom regions (two bit
// cursors, every read one load plus shifts). The regions' exact sizing is
// the caller's responsibility.
func adaptiveUnpackFast(ow []uint64, bm, kept, bot []byte, k int, repeat bool) {
	sp := getBuf()
	defer putBuf(sp)
	pad := pooledBytes(sp, len(kept)+len(bot)+8)
	copy(pad, kept)
	copy(pad[len(kept):], bot)
	clear(pad[len(kept)+len(bot):])
	kw := uint(k)
	bw := uint(64 - k)
	kpos := uint(0)
	bpos := uint(len(kept)) * 8
	prevTop := uint64(0)
	for i := range ow {
		var top uint64
		if bm[i>>3]&(0x80>>(i&7)) != 0 {
			top = loadBits(pad, kpos, kw)
			kpos += kw
		} else if repeat {
			top = prevTop
		}
		var b uint64
		if bw > 0 {
			b = loadBits(pad, bpos, bw)
			bpos += bw
		}
		ow[i] = top<<bw | b
		prevTop = top
	}
}

// RAZE implements Repeated Adaptive Zero Elimination: RZE restricted to the
// adaptively chosen top k bits of each 64-bit word, with the low 64-k bits
// always stored verbatim.
type RAZE struct{}

// Name implements Transform.
func (RAZE) Name() string { return "RAZE" }

// ForwardInto implements Transform (see the package comment for the dst
// ownership contract).
func (RAZE) ForwardInto(dst, src []byte) []byte { return adaptiveForwardInto(dst, src, false) }

// InverseInto implements Transform (see the package comment for the dst
// ownership contract).
func (RAZE) InverseInto(dst, enc []byte, maxDecoded int) ([]byte, error) {
	return adaptiveInverseInto(dst, enc, false, maxDecoded)
}

// RARE implements Repeated Adaptive Repetition Elimination: like RAZE but a
// top piece is eliminated when it equals the prior word's top piece rather
// than when it is zero. DPratio runs it after RAZE because zero elimination
// tends to leave values with identical most-significant bit patterns.
type RARE struct{}

// Name implements Transform.
func (RARE) Name() string { return "RARE" }

// ForwardInto implements Transform (see the package comment for the dst
// ownership contract).
func (RARE) ForwardInto(dst, src []byte) []byte { return adaptiveForwardInto(dst, src, true) }

// InverseInto implements Transform (see the package comment for the dst
// ownership contract).
func (RARE) InverseInto(dst, enc []byte, maxDecoded int) ([]byte, error) {
	return adaptiveInverseInto(dst, enc, true, maxDecoded)
}
