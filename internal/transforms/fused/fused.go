// Package fused provides single-pass fused kernels for the hot fixed
// chunk pipelines of internal/core:
//
//	SPspeed: DIFFMS32 -> MPLG32   (Speed32)
//	DPspeed: DIFFMS64 -> MPLG64   (Speed64)
//	SPratio: DIFFMS32 -> BIT32 -> RZE   (Ratio32)
//	DPratio after its whole-input FCM: DIFFMS64 -> RAZE -> RARE   (Ratio64)
//	windowed DPratio: FCM(table) -> DIFFMS64 -> RAZE -> RARE   (FCMRatio64)
//
// The scheme table in internal/selector pairs each kernel with its scheme
// byte; core and the selector route chunks through that table.
//
// The stage-by-stage transforms.Pipeline makes a full pass over the chunk
// per stage, ping-ponging intermediates through pooled buffers: SPspeed
// writes and re-reads a chunk-sized DIFFMS stream that exists only to feed
// MPLG, and SPratio adds a second full intermediate for the bit transpose.
// The fused kernels eliminate that memory traffic the same way FZ-GPU's
// fused quantize+shuffle kernel does: the speed kernels difference,
// zigzag, width-scan, and bit-pack each 512-byte MPLG subchunk through one
// register/L1-resident tile, so the DIFFMS stream never materializes; the
// ratio kernel differences straight into the 32x32 register-tile bit
// transpose, eliminating the DIFFMS intermediate and one full pass (the
// plane-major layout is global to the chunk, so its buffer — and RZE's
// whole-buffer bitmap — remain, in pooled scratch).
//
// # Byte-identical by construction, pinned by tests
//
// A fused kernel computes exactly the composition of its stages — same
// per-subchunk width fields, same MSB-first accumulator packing, same
// plane-major layout, same RZE byte format — so its output is
// byte-identical to the stage-by-stage pipeline and its decoder accepts
// exactly the same encodings. Each kernel keeps the original pipeline as
// its reference fallback: when a required word view is unavailable
// (misaligned buffer, purego build, big-endian target) the call transparently
// runs the unfused stages instead, which the kernels_test.go differential
// harness (offsets 0-7, odd lengths, -race) and FuzzFusedKernels pin to
// the same bytes and the same corrupt-input error behavior.
//
// # Ownership and budgets
//
// ForwardInto/InverseInto follow the transforms append-into contract: they
// append to dst (which may be nil, and must not overlap src/enc) and
// return the extended slice. InverseInto enforces the same decode-budget
// semantics as transforms.Pipeline.InverseInto: interior stages get
// 2*maxDecoded+64 of headroom and the final decoded length is checked
// against maxDecoded exactly. All scratch is pooled; a warmed kernel
// allocates nothing beyond dst growth.
package fused

import (
	"encoding/binary"
	"fmt"
	"sync"

	"fpcompress/internal/transforms"
)

// Kernel is one fused single-pass pipeline: a transforms.Transform whose
// Name identifies the fusion (e.g. "FUSED(DIFFMS32+MPLG32)"), whose
// ForwardInto is byte-identical to the unfused pipeline's, and whose
// InverseInto follows the pipeline budget rules (see the package comment).
// Implementations are safe for concurrent use (all per-call state is
// pooled or stack-resident).
type Kernel interface {
	transforms.Transform
	// Pipeline returns the equivalent stage-by-stage pipeline (the
	// reference/fallback path).
	Pipeline() transforms.Pipeline
}

// mplgSubchunkWords32/64 is the paper's 512-byte MPLG subchunk in words.
const (
	mplgSubchunkWords32 = 512 / 4
	mplgSubchunkWords64 = 512 / 8
)

// stageBudget mirrors transforms.Pipeline.inverseInto's interior-stage
// headroom: 2*maxDecoded+64, saturating to NoLimit.
func stageBudget(maxDecoded int) int {
	if maxDecoded < 0 {
		return transforms.NoLimit
	}
	const maxInt = int(^uint(0) >> 1)
	if maxDecoded >= (maxInt-64)/2 {
		return transforms.NoLimit
	}
	return 2*maxDecoded + 64
}

// corruptf builds a transforms.ErrCorrupt-wrapped error, so fused decode
// failures satisfy the same errors.Is checks as the unfused stages.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", transforms.ErrCorrupt, fmt.Sprintf(format, args...))
}

// grow extends b by n bytes (contents of the new tail are unspecified),
// reallocating only when capacity is short (same as transforms' grow).
func grow(b []byte, n int) []byte {
	l := len(b)
	if cap(b)-l >= n {
		return b[: l+n : cap(b)]
	}
	nb := make([]byte, l+n, (l+n)*3/2+64)
	copy(nb, b)
	return nb
}

// bufPool holds the ratio kernel's plane-major intermediate buffers.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

func getBuf() *[]byte  { return bufPool.Get().(*[]byte) }
func putBuf(p *[]byte) { bufPool.Put(p) }

// pooledBytes resizes the pooled buffer *p to exactly n bytes (contents
// unspecified), retaining grown capacity in the pool.
func pooledBytes(p *[]byte, n int) []byte {
	b := *p
	if cap(b) < n {
		b = make([]byte, n)
		*p = b
	}
	return b[:n]
}

// bitFinish spills an accumulator's remaining pending bits zero-padded to
// a byte boundary (identical to the transforms kernels' flush) and returns
// the new write cursor.
func bitFinish(buf []byte, bp int, acc uint64, nacc uint) int {
	for nacc >= 8 {
		nacc -= 8
		buf[bp] = byte(acc >> nacc)
		bp++
	}
	if nacc > 0 {
		buf[bp] = byte(acc << (8 - nacc))
		bp++
	}
	return bp
}

// loadBits reads width bits (1 <= width <= 64) MSB-first at bit offset pos
// of pad, which must have 8 readable bytes past the byte holding the last
// addressed bit (the decoders copy bit regions into padded pooled scratch
// for exactly this). Identical to the transforms decoders' load window.
func loadBits(pad []byte, pos, width uint) uint64 {
	off := pos & 7
	x := binary.BigEndian.Uint64(pad[pos>>3:])
	avail := 64 - off
	if width <= avail {
		v := x >> (avail - width)
		if width < 64 {
			v &= 1<<width - 1
		}
		return v
	}
	spill := width - avail // 1..7
	return (x&(1<<avail-1))<<spill | uint64(pad[pos>>3+8])>>(8-spill)
}

// GateStats carries the per-chunk statistics the auto-mode selector's
// speed-wins gate needs, accumulated for free during a fused speed-kernel
// pass so the gate never has to materialize or re-read the DIFFMS stream.
type GateStats struct {
	// Words is the number of complete diff words in the chunk.
	Words int
	// Ors (32-bit kernels) holds the byte-swapped 8-word group ORs of the
	// diff stream's full 32-word blocks — 4 per block, ors[k*4+b] covering
	// source words k*32+(3-b)*8 … +8 — exactly the array the selector's
	// exact BIT32→RZE pricing is defined over. Reused across calls.
	Ors []uint32
	// Tail (32-bit kernels) holds the diff-stream bytes past the last full
	// 32-word block: the zigzagged difference words followed by the
	// verbatim trailing bytes (at most 127+3 bytes). Reused across calls.
	Tail []byte
	// Hist (64-bit kernels) is the leading-zero histogram of the zigzagged
	// difference words — the input to the selector's RAZE→RARE cost model.
	Hist [65]int
}
