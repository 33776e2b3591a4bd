package main

import (
	"encoding/binary"
	"math"
	"math/rand/v2"

	"fpcompress/internal/sdr"
)

// corpus is the synthetic SDRBench/FPdouble file set (internal/sdr) every
// workload slices its inputs from. The files themselves are fixed; the
// workload seed only chooses which files, in which order, at which offsets.
type corpus struct {
	sp, dp []*sdr.File
}

func newCorpus(valuesPerFile int) *corpus {
	cfg := sdr.Config{ValuesPerFile: valuesPerFile}
	return &corpus{sp: sdr.SingleFiles(cfg), dp: sdr.DoubleFiles(cfg)}
}

// slicer cuts seeded slices from one precision's files. It deals the
// files from a shuffled deck, reshuffled when used up, so every file
// contributes equally to a long input and inputs made from different seeds
// share the corpus's mix of domains; the seed picks the order.
type slicer struct {
	r     *rand.Rand
	files []*sdr.File
	deck  []int
}

func newSlicer(r *rand.Rand, files []*sdr.File) *slicer { return &slicer{r: r, files: files} }

func (s *slicer) next() *sdr.File {
	if len(s.deck) == 0 {
		s.deck = s.r.Perm(len(s.files))
	}
	f := s.files[s.deck[0]]
	s.deck = s.deck[1:]
	return f
}

// assemble returns n bytes (rounded down to whole values) made of slices,
// minSlice to maxSlice bytes long at seeded offsets, of the dealt files.
// Each slice is multiplied by a seeded power of two between 1/16 and 16.
// That shifts every value's exponent and keeps each slice's mantissas and
// inner structure intact, so an input larger than the corpus does not
// repeat bit-exactly; a whole-input predictor such as DPratio's FCM would
// otherwise learn the repeats and report a ratio no real archive reaches.
func (s *slicer) assemble(n, minSlice, maxSlice int) []byte {
	word := int(s.files[0].Precision)
	n -= n % word
	out := make([]byte, 0, n)
	for len(out) < n {
		f := s.next()
		l := minSlice + s.r.IntN(maxSlice-minSlice+1)
		l = min(l, len(f.Data), n-len(out))
		l -= l % word
		off := s.r.IntN(len(f.Data) - l + 1)
		off -= off % word
		out = appendScaled(out, f.Data[off:off+l], word, s.r.IntN(9)-4)
	}
	return out
}

// appendScaled appends src, read as little-endian words of the given size,
// with every value multiplied by 2^exp. A value that would overflow to
// infinity is kept unscaled, so scaling never introduces infinities.
func appendScaled(dst, src []byte, word, exp int) []byte {
	if exp == 0 {
		return append(dst, src...)
	}
	start := len(dst)
	dst = append(dst, src...)
	b := dst[start:]
	if word == 4 {
		f := float32(math.Ldexp(1, exp))
		for i := 0; i+4 <= len(b); i += 4 {
			v := math.Float32frombits(binary.LittleEndian.Uint32(b[i:]))
			if s := v * f; !math.IsInf(float64(s), 0) {
				binary.LittleEndian.PutUint32(b[i:], math.Float32bits(s))
			}
		}
		return dst
	}
	f := math.Ldexp(1, exp)
	for i := 0; i+8 <= len(b); i += 8 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(b[i:]))
		if s := v * f; !math.IsInf(s, 0) {
			binary.LittleEndian.PutUint64(b[i:], math.Float64bits(s))
		}
	}
	return dst
}
