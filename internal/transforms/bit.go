package transforms

import (
	"fpcompress/internal/simd"
	"fpcompress/internal/wordio"
)

// Bit implements the BIT transformation (paper §3.2, Figure 4): a bit
// transposition (bit shuffle) that groups the first (most significant) bit
// of every word together, then all second bits, and so on. After DIFFMS the
// words have many leading zeros, so transposition produces long runs of zero
// bytes in the planes holding the high bits — exactly the input RZE wants.
//
// Following the paper's warp-level parallelization, words are processed in
// square blocks (32 words for 32-bit data, 64 words for 64-bit data); each
// block is a bit-matrix transpose. The transposed rows are laid out
// plane-major across the whole chunk so that the zero runs from different
// blocks join up. Words beyond the last full block (and trailing bytes that
// do not fill a word) are copied verbatim; this only ever affects the final
// chunk of an input.
//
// BIT is size-preserving and is its own inverse up to the plane-major
// re-layout.
type Bit struct {
	Word wordio.WordSize
}

// Name implements Transform.
func (b Bit) Name() string {
	if b.Word == wordio.W32 {
		return "BIT32"
	}
	return "BIT64"
}

// Transpose32 performs an in-place 32x32 bit-matrix transpose (Hacker's
// Delight, fig. 7-3): on output a[i] bit (31-j) equals input a[j] bit
// (31-i). Exported because the selector's BIT→RZE pricing reuses it to
// materialize the plane-major zero bitmap from group ORs.
func Transpose32(a *[32]uint32) {
	m := uint32(0x0000FFFF)
	for j := uint(16); j != 0; j >>= 1 {
		for k := 0; k < 32; k = (k + int(j) + 1) &^ int(j) {
			t := (a[k] ^ (a[k+int(j)] >> j)) & m
			a[k] ^= t
			a[k+int(j)] ^= t << j
		}
		m ^= m << (j >> 1)
	}
}

// transpose64 performs an in-place 64x64 bit-matrix transpose.
func transpose64(a *[64]uint64) {
	m := uint64(0x00000000FFFFFFFF)
	for j := uint(32); j != 0; j >>= 1 {
		for k := 0; k < 64; k = (k + int(j) + 1) &^ int(j) {
			t := (a[k] ^ (a[k+int(j)] >> j)) & m
			a[k] ^= t
			a[k+int(j)] ^= t << j
		}
		m ^= m << (j >> 1)
	}
}

// bitForward32 transposes directly on aliased words: each 32-word block is
// copied into the register-resident tile, transposed, and scattered with
// stride nb (the plane-major layout).
func bitForward32(ow, sw []uint32, nb int) {
	if nb > 0 && simd.BitFwd32(ow, sw, nb) {
		return
	}
	var blk [32]uint32
	for k := 0; k < nb; k++ {
		copy(blk[:], sw[k*32:k*32+32])
		Transpose32(&blk)
		for plane := 0; plane < 32; plane++ {
			ow[plane*nb+k] = blk[plane]
		}
	}
}

func bitForward64(ow, sw []uint64, nb int) {
	if nb > 0 && simd.BitFwd64(ow, sw, nb) {
		return
	}
	var blk [64]uint64
	for k := 0; k < nb; k++ {
		copy(blk[:], sw[k*64:k*64+64])
		transpose64(&blk)
		for plane := 0; plane < 64; plane++ {
			ow[plane*nb+k] = blk[plane]
		}
	}
}

// bitInverse32 gathers each block's planes with stride nb, transposes, and
// stores the block contiguously.
func bitInverse32(ow, ew []uint32, nb int) {
	if nb > 0 && simd.BitInv32(ow, ew, nb) {
		return
	}
	var blk [32]uint32
	for k := 0; k < nb; k++ {
		for plane := 0; plane < 32; plane++ {
			blk[plane] = ew[plane*nb+k]
		}
		Transpose32(&blk)
		copy(ow[k*32:k*32+32], blk[:])
	}
}

func bitInverse64(ow, ew []uint64, nb int) {
	if nb > 0 && simd.BitInv64(ow, ew, nb) {
		return
	}
	var blk [64]uint64
	for k := 0; k < nb; k++ {
		for plane := 0; plane < 64; plane++ {
			blk[plane] = ew[plane*nb+k]
		}
		transpose64(&blk)
		copy(ow[k*64:k*64+64], blk[:])
	}
}

// ForwardInto implements Transform (see the package comment for the dst
// ownership contract).
func (b Bit) ForwardInto(dst, src []byte) []byte {
	base := len(dst)
	dst = grow(dst, len(src))
	out := dst[base:]
	switch b.Word {
	case wordio.W32:
		n := len(src) / 4
		nb := n / 32 // full blocks
		if sw, ok := wordio.View32(src); ok {
			if ow, ok := wordio.View32(out); ok {
				bitForward32(ow, sw, nb)
				copy(out[nb*32*4:], src[nb*32*4:])
				return dst
			}
		}
		var blk [32]uint32
		for k := 0; k < nb; k++ {
			for j := 0; j < 32; j++ {
				blk[j] = wordio.U32(src, k*32+j)
			}
			Transpose32(&blk)
			for plane := 0; plane < 32; plane++ {
				wordio.PutU32(out, plane*nb+k, blk[plane])
			}
		}
		copy(out[nb*32*4:], src[nb*32*4:])
	default:
		n := len(src) / 8
		nb := n / 64
		if sw, ok := wordio.View64(src); ok {
			if ow, ok := wordio.View64(out); ok {
				bitForward64(ow, sw, nb)
				copy(out[nb*64*8:], src[nb*64*8:])
				return dst
			}
		}
		var blk [64]uint64
		for k := 0; k < nb; k++ {
			for j := 0; j < 64; j++ {
				blk[j] = wordio.U64(src, k*64+j)
			}
			transpose64(&blk)
			for plane := 0; plane < 64; plane++ {
				wordio.PutU64(out, plane*nb+k, blk[plane])
			}
		}
		copy(out[nb*64*8:], src[nb*64*8:])
	}
	return dst
}

// InverseInto implements Transform (see the package comment for the dst
// ownership contract). BIT is size-preserving, so the budget bounds the
// encoded length itself.
func (b Bit) InverseInto(dst, enc []byte, maxDecoded int) ([]byte, error) {
	if maxDecoded >= 0 && len(enc) > maxDecoded {
		return nil, corruptf("BIT: %d bytes exceed decode budget %d", len(enc), maxDecoded)
	}
	base := len(dst)
	dst = grow(dst, len(enc))
	out := dst[base:]
	switch b.Word {
	case wordio.W32:
		n := len(enc) / 4
		nb := n / 32
		if ew, ok := wordio.View32(enc); ok {
			if ow, ok := wordio.View32(out); ok {
				bitInverse32(ow, ew, nb)
				copy(out[nb*32*4:], enc[nb*32*4:])
				return dst, nil
			}
		}
		var blk [32]uint32
		for k := 0; k < nb; k++ {
			for plane := 0; plane < 32; plane++ {
				blk[plane] = wordio.U32(enc, plane*nb+k)
			}
			Transpose32(&blk)
			for j := 0; j < 32; j++ {
				wordio.PutU32(out, k*32+j, blk[j])
			}
		}
		copy(out[nb*32*4:], enc[nb*32*4:])
	default:
		n := len(enc) / 8
		nb := n / 64
		if ew, ok := wordio.View64(enc); ok {
			if ow, ok := wordio.View64(out); ok {
				bitInverse64(ow, ew, nb)
				copy(out[nb*64*8:], enc[nb*64*8:])
				return dst, nil
			}
		}
		var blk [64]uint64
		for k := 0; k < nb; k++ {
			for plane := 0; plane < 64; plane++ {
				blk[plane] = wordio.U64(enc, plane*nb+k)
			}
			transpose64(&blk)
			for j := 0; j < 64; j++ {
				wordio.PutU64(out, k*64+j, blk[j])
			}
		}
		copy(out[nb*64*8:], enc[nb*64*8:])
	}
	return dst, nil
}
