// Package bitio implements bit-granular serialization: fixed-width bit
// packing (used by the MPLG, RAZE, and RARE transforms), bitmaps, and
// varint length prefixes for self-describing transform outputs.
package bitio

import (
	"encoding/binary"
	"errors"
	"math/bits"
)

// ErrTruncated reports that a reader ran past the end of its input.
var ErrTruncated = errors.New("bitio: truncated input")

// Writer accumulates bits most-significant-first into a byte buffer.
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	acc  uint64
	nacc uint // bits currently buffered in acc (< 64 between calls)
}

// NewWriter returns a Writer whose internal buffer has the given capacity.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// NewWriterBuf returns a Writer that appends to an existing byte slice
// (e.g. a header built with AppendUvarint), avoiding a copy on assembly.
func NewWriterBuf(prefix []byte) *Writer {
	return &Writer{buf: prefix}
}

// flush64 spills the full 64-bit accumulator as one big-endian word
// (MSB-first bit order), a single 8-byte store on the fast path.
func (w *Writer) flush64() {
	w.buf = binary.BigEndian.AppendUint64(w.buf, w.acc)
	w.acc = 0
	w.nacc = 0
}

// WriteBits appends the low n bits of v (0 <= n <= 64), most significant
// bit first.
func (w *Writer) WriteBits(v uint64, n uint) {
	if n == 0 {
		return
	}
	if n < 64 {
		v &= (1 << n) - 1
	}
	if w.nacc+n <= 64 {
		w.acc = w.acc<<n | v
		w.nacc += n
		if w.nacc == 64 {
			w.flush64()
		}
		return
	}
	space := 64 - w.nacc
	w.acc = w.acc<<space | v>>(n-space)
	w.nacc = 64
	w.flush64()
	rest := n - space // 1..63
	w.acc = v & (1<<rest - 1)
	w.nacc = rest
}

// WriteBit appends a single bit (inlineable: a one-bit write can never
// straddle the accumulator).
func (w *Writer) WriteBit(b uint) {
	w.acc = w.acc<<1 | uint64(b&1)
	w.nacc++
	if w.nacc == 64 {
		w.flush64()
	}
}

// Align pads with zero bits to the next byte boundary and spills the
// accumulator.
func (w *Writer) Align() {
	if w.nacc%8 != 0 {
		w.WriteBits(0, 8-w.nacc%8)
	}
	for w.nacc >= 8 {
		w.nacc -= 8
		w.buf = append(w.buf, byte(w.acc>>w.nacc))
	}
	w.acc = 0
}

// Bytes flushes (padding to a byte boundary) and returns the buffer.
func (w *Writer) Bytes() []byte {
	w.Align()
	return w.buf
}

// BitLen returns the number of bits written so far.
func (w *Writer) BitLen() int { return len(w.buf)*8 + int(w.nacc) }

// Reader consumes bits most-significant-first from a byte slice.
type Reader struct {
	buf []byte
	pos uint // bit position
}

// NewReader wraps b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// ReadBits reads n bits (0 <= n <= 64) most significant first.
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if n == 0 {
		return 0, nil
	}
	if r.pos+n > uint(len(r.buf))*8 {
		return 0, ErrTruncated
	}
	byteIdx := r.pos >> 3
	bitOff := r.pos & 7
	r.pos += n
	// Fast path: read a big-endian 64-bit window in one load plus at most
	// one spill byte (bitOff <= 7 and n <= 64 span at most 71 bits).
	if byteIdx+8 <= uint(len(r.buf)) {
		x := binary.BigEndian.Uint64(r.buf[byteIdx:])
		avail := 64 - bitOff
		if n <= avail {
			v := x >> (avail - n)
			if n < 64 {
				v &= 1<<n - 1
			}
			return v, nil
		}
		rest := n - avail // 1..7
		lo := uint64(r.buf[byteIdx+8]) >> (8 - rest)
		return (x&(1<<avail-1))<<rest | lo, nil
	}
	// Slow path near the end of the buffer.
	var v uint64
	pos := byteIdx*8 + bitOff
	for n > 0 {
		bi := pos / 8
		off := pos % 8
		avail := 8 - off
		take := n
		if take > avail {
			take = avail
		}
		chunk := uint64(r.buf[bi]) >> (avail - take) & (1<<take - 1)
		v = v<<take | chunk
		pos += take
		n -= take
	}
	return v, nil
}

// ReadBit reads a single bit.
func (r *Reader) ReadBit() (uint, error) {
	v, err := r.ReadBits(1)
	return uint(v), err
}

// Align skips to the next byte boundary.
func (r *Reader) Align() {
	if r.pos%8 != 0 {
		r.pos += 8 - r.pos%8
	}
}

// Rest returns the unread bytes after aligning to a byte boundary.
func (r *Reader) Rest() []byte {
	r.Align()
	return r.buf[r.pos/8:]
}

// PackWidth64 packs each value's low `width` bits contiguously and returns
// the byte slice (padded to a byte boundary). width may be 0, in which case
// an empty slice is returned.
func PackWidth64(vals []uint64, width uint) []byte {
	if width == 0 || len(vals) == 0 {
		return nil
	}
	w := NewWriter((len(vals)*int(width) + 7) / 8)
	for _, v := range vals {
		w.WriteBits(v, width)
	}
	return w.Bytes()
}

// UnpackWidth64 reads n values of `width` bits each from b.
func UnpackWidth64(b []byte, n int, width uint) ([]uint64, error) {
	vals := make([]uint64, n)
	if width == 0 {
		return vals, nil
	}
	r := NewReader(b)
	for i := 0; i < n; i++ {
		v, err := r.ReadBits(width)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return vals, nil
}

// AppendUvarint appends x to dst in unsigned LEB128 form.
func AppendUvarint(dst []byte, x uint64) []byte {
	for x >= 0x80 {
		dst = append(dst, byte(x)|0x80)
		x >>= 7
	}
	return append(dst, byte(x))
}

// Uvarint decodes a LEB128 value and returns it with the number of bytes
// consumed; n == 0 signals a malformed or truncated varint.
func Uvarint(b []byte) (uint64, int) {
	var x uint64
	var s uint
	for i, c := range b {
		if i == 10 {
			return 0, 0
		}
		if c < 0x80 {
			if i == 9 && c > 1 {
				return 0, 0
			}
			return x | uint64(c)<<s, i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0
}

// UvarintLen returns the encoded size of x.
func UvarintLen(x uint64) int {
	return (bits.Len64(x|1) + 6) / 7
}
