// Package selector implements the auto-mode per-chunk pipeline selection
// behind the Auto32/Auto64 algorithms (ROADMAP open item #1): for every
// container chunk it prices each candidate fixed pipeline from cheap
// statistics of the DIFFMS stream and encodes only the winner, recording
// which pipeline was used in the container's per-chunk scheme table
// (container format v2, FORMAT.md).
//
// The cost model is exact wherever the transforms make that affordable:
//
//   - MPLG32/MPLG64 (the speed pipelines) are simply encoded — DIFFMS is
//     shared by every candidate and MPLG is the cheapest tail stage, so the
//     speed candidate's "prediction" is its real output, which then doubles
//     as the balance candidate's input.
//   - An RZE stage costs exactly uvarint(len) + repeat-bitmap + non-zero
//     bytes, so the balance pipelines (MPLG→RZE) are priced exactly by one
//     transforms.ZeroBitmap scan plus the length-only
//     transforms.RepeatBitmapLen over the already-produced MPLG output.
//   - BIT32→RZE (the single-precision ratio pipeline) is priced exactly
//     without running the transpose: a BIT output byte is non-zero iff the
//     OR of the 8 source words feeding it has the corresponding bit set, so
//     the group ORs determine both the surviving byte count and the exact
//     zero bitmap RZE will compress.
//   - RAZE→RARE (the double-precision ratio tail) is the one modeled
//     candidate: RAZE minimizes 65n − k·cnt[k] over the leading-zero
//     histogram (transforms.SplitModelBits), and a calibrated multiplier
//     accounts for the bitmap compression and the RARE pass on top.
//   - The windowed selector (NewWindowed, behind the windowed Auto64 mode)
//     adds windowed DPratio's per-chunk pipeline (FCMW64: table-FCM with
//     per-half DIFFMS64 → RAZE → RARE segments) as a fourth candidate
//     and prices both 64-bit ratio candidates exactly, by running the
//     fused single-pass kernels into pooled scratch on the (rare)
//     chunks that reach full pricing.
//
// Ties are broken toward speed: the fastest candidate within a small margin
// (a percentage of the chunk size) of the best prediction wins, which keeps
// auto mode at full speed-pipeline throughput on data where the slow
// pipelines buy little. A mis-prediction escape hatch bounds cost-model
// error: if the winner's actual encoded size exceeds its prediction by more
// than 25%, the runner-up is encoded too and the smaller result is kept.
//
// Everything runs allocation-free on the hot path: all scratch (the DIFFMS
// stream, the tentative MPLG encoding, bitmaps, group ORs) lives in a
// pooled per-call state, and selection happens inside the container's
// parallel chunk workers.
package selector

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"fpcompress/internal/bitio"
	"fpcompress/internal/transforms"
	"fpcompress/internal/transforms/fused"
	"fpcompress/internal/wordio"
)

// Scheme identifiers stored in the container v2 per-chunk scheme table.
// Non-raw values deliberately equal the core.ID of the fixed algorithm
// whose chunked pipeline encoded the chunk, so a scheme byte reads as "this
// chunk decodes like a chunk of that fixed algorithm".
const (
	// SchemeRaw marks a chunk stored verbatim (the container's raw
	// fallback). It is produced by the container layer, never by the
	// selector, and the v2 parser enforces that raw chunks carry it.
	SchemeRaw byte = 0
	// SchemeMPLG32 is DIFFMS32 → MPLG32 (SPspeed's pipeline).
	SchemeMPLG32 byte = 1
	// SchemeBitRZE32 is DIFFMS32 → BIT32 → RZE (SPratio's pipeline).
	SchemeBitRZE32 byte = 2
	// SchemeMPLG64 is DIFFMS64 → MPLG64 (DPspeed's pipeline).
	SchemeMPLG64 byte = 3
	// SchemeRazeRare64 is DIFFMS64 → RAZE → RARE (DPratio's chunked
	// pipeline; the FCM preconditioner is whole-input and cannot apply to
	// independently decodable chunks).
	SchemeRazeRare64 byte = 4
	// SchemeMPLGRZE32 is DIFFMS32 → MPLG32 → RZE (SPbalance's pipeline).
	SchemeMPLGRZE32 byte = 5
	// SchemeMPLGRZE64 is DIFFMS64 → MPLG64 → RZE (DPbalance's pipeline).
	SchemeMPLGRZE64 byte = 6
	// SchemeFCMRazeRare64 is FCMW64 — windowed DPratio's chunk pipeline:
	// FCM(table) with the predictor reset per chunk, the value and distance
	// halves of its stream each encoded by an independent DIFFMS64 → RAZE →
	// RARE segment (transforms.FCMW). Only the windowed selector
	// (NewWindowed) emits it, inside container v4; both selectors decode it.
	SchemeFCMRazeRare64 byte = 7

	// NumSchemes bounds the valid scheme byte range.
	NumSchemes = 8
)

// ErrScheme is the typed error wrapped by every scheme-routing failure:
// a scheme byte that is unknown, names a pipeline of the other word size,
// or marks a raw chunk reaching the codec layer.
var ErrScheme = errors.New("selector: bad chunk scheme")

// schemeErrf builds an ErrScheme-wrapped error.
func schemeErrf(format string, a ...any) error {
	return fmt.Errorf("%w: %s", ErrScheme, fmt.Sprintf(format, a...))
}

// Scheme is one row of the scheme table: everything needed to encode or
// decode a chunk recorded under one scheme byte. The table is the only
// place a stage sequence is spelled out; core builds its fixed algorithms
// from it and the selector routes every chunk through it.
type Scheme struct {
	// Name is the short human-readable name (see SchemeName).
	Name string
	// Word is the word size the scheme's stages operate on.
	Word wordio.WordSize
	// Pipeline is the reference stage-by-stage pipeline.
	Pipeline transforms.Pipeline
	// Kernel is the fused single-pass equivalent of Pipeline, nil for the
	// balance schemes, which have none.
	Kernel fused.Kernel
	codec  transforms.Transform
}

// Codec returns the transform chunks of this scheme encode and decode
// through: Kernel where one exists (byte-identical to Pipeline, falling
// back to it internally on misaligned buffers or purego builds), otherwise
// Pipeline.
func (r Scheme) Codec() transforms.Transform { return r.codec }

// fusedScheme builds a row from a fused kernel, whose own reference
// pipeline becomes the row's Pipeline.
func fusedScheme(name string, word wordio.WordSize, k fused.Kernel) Scheme {
	return Scheme{Name: name, Word: word, Pipeline: k.Pipeline(), Kernel: k, codec: k}
}

// pipelineScheme builds a row for a scheme with no fused kernel.
func pipelineScheme(name string, word wordio.WordSize, p transforms.Pipeline) Scheme {
	return Scheme{Name: name, Word: word, Pipeline: p, codec: p}
}

// schemes is the scheme table, indexed by scheme byte. The raw row only
// names SchemeRaw: raw chunks never reach a codec.
var schemes = [NumSchemes]Scheme{
	SchemeRaw:        {Name: "raw"},
	SchemeMPLG32:     fusedScheme("mplg32", wordio.W32, fused.NewSpeed32()),
	SchemeBitRZE32:   fusedScheme("bit+rze32", wordio.W32, fused.NewRatio32()),
	SchemeMPLG64:     fusedScheme("mplg64", wordio.W64, fused.NewSpeed64()),
	SchemeRazeRare64: fusedScheme("raze+rare64", wordio.W64, fused.NewRatio64()),
	SchemeMPLGRZE32: pipelineScheme("mplg+rze32", wordio.W32, transforms.Pipeline{
		transforms.DiffMS{Word: wordio.W32}, transforms.MPLG{Word: wordio.W32}, transforms.RZE{},
	}),
	SchemeMPLGRZE64: pipelineScheme("mplg+rze64", wordio.W64, transforms.Pipeline{
		transforms.DiffMS{Word: wordio.W64}, transforms.MPLG{Word: wordio.W64}, transforms.RZE{},
	}),
	SchemeFCMRazeRare64: fusedScheme("fcm+raze+rare64", wordio.W64, fused.NewFCMRatio64()),
}

// Lookup returns the scheme table row for a non-raw scheme byte; ok is
// false for SchemeRaw and out-of-range bytes.
func Lookup(scheme byte) (row Scheme, ok bool) {
	if scheme == SchemeRaw || scheme >= NumSchemes {
		return Scheme{}, false
	}
	return schemes[scheme], true
}

// SchemeName returns a short human-readable name for a scheme byte, used by
// the fpcz -stats breakdown and the fpcd metrics snapshot.
func SchemeName(scheme byte) string {
	if scheme >= NumSchemes {
		return fmt.Sprintf("scheme%d", scheme)
	}
	return schemes[scheme].Name
}

// ValidScheme reports whether a non-raw scheme byte names a pipeline of the
// given word size.
func ValidScheme(word wordio.WordSize, scheme byte) bool {
	row, ok := Lookup(scheme)
	return ok && row.Word == word
}

// RAZE→RARE cost model calibration (see calibrateRazeRare in the tests):
// predicted bytes = model·num/den + len(chunk)·slackPct/100 + floor, where
// model is transforms.SplitModelBits over the DIFFMS stream's leading-zero
// histogram. The multiplier folds together the repeat-bitmap compression
// (actual RAZE ≤ model) and the RARE pass on top of it.
const (
	razeRareNum   = 31
	razeRareDen   = 32
	razeRareFloor = 16
)

// marginPctFor returns the speed-bias tie-break margin as a percentage of
// the chunk length: the fastest candidate predicted within margin of the
// best prediction is chosen. The values come from per-chunk gap histograms
// over the SDRBench-derived corpora: nearly all chunks where a slow
// pipeline wins at all win by either <2% (noise floor, not worth 2-6x the
// encode time) or >8% (clearly worth it).
func marginPctFor(word wordio.WordSize) int {
	if word == wordio.W32 {
		return 4
	}
	return 2
}

// Selector prices and encodes chunks for one word size. It is stateless
// apart from immutable configuration: one instance may be used from any
// number of container workers concurrently.
type Selector struct {
	word      wordio.WordSize
	marginPct int
	cands     [4]byte // candidate schemes, fastest first; first nc are valid
	nc        int
	windowed  bool // NewWindowed: the FCM candidate joins, priced exactly
	// diff and mplg are the speed scheme's two stages; every candidate
	// starts with diff, and the balance candidate extends mplg's output.
	diff, mplg transforms.Transform
	// ratioTail is the ratio scheme past its DIFFMS stage (BIT32→RZE or
	// RAZE→RARE), applied to the materialized DIFFMS stream.
	ratioTail transforms.Pipeline
	fspeed    speedKernel // the speed scheme's fused kernel, with gate statistics
}

// speedKernel is the fused speed-pipeline encoder the hot path runs: a
// fused.Kernel that also accumulates the speed-wins gate's statistics
// (group ORs for the exact BIT32→RZE price, the leading-zero histogram for
// the RAZE→RARE model) during its single pass, so the gate never has to
// materialize or re-read the DIFFMS stream. Both fused speed kernels
// implement it.
type speedKernel interface {
	fused.Kernel
	ForwardStatsInto(dst, src []byte, gs *fused.GateStats) ([]byte, bool)
}

// New returns the selector for one word size.
func New(word wordio.WordSize) *Selector {
	s := &Selector{word: word, marginPct: marginPctFor(word), nc: 3}
	if word == wordio.W32 {
		s.cands = [4]byte{SchemeMPLG32, SchemeMPLGRZE32, SchemeBitRZE32}
	} else {
		s.cands = [4]byte{SchemeMPLG64, SchemeMPLGRZE64, SchemeRazeRare64}
	}
	speed := schemes[s.cands[0]]
	s.diff, s.mplg = speed.Pipeline[0], speed.Pipeline[1]
	s.fspeed = speed.Kernel.(speedKernel)
	s.ratioTail = schemes[s.cands[2]].Pipeline[1:]
	return s
}

// NewWindowed returns the windowed-mode selector behind the windowed Auto64
// algorithm (word must be W64, the only word size with cross-chunk
// predictor state to window). It prices one extra candidate — windowed
// DPratio's per-chunk pipeline, FCMW64 — and,
// because every chunk is self-contained, prices both ratio candidates
// exactly by encoding them through the fused kernels instead of through
// the calibrated model (so the mis-prediction escape hatch never fires).
func NewWindowed(word wordio.WordSize) *Selector {
	if word != wordio.W64 {
		panic("selector: windowed selector requires W64")
	}
	s := New(word)
	s.windowed = true
	s.cands[3] = SchemeFCMRazeRare64
	s.nc = 4
	return s
}

// Word returns the word size this selector prices for.
func (s *Selector) Word() wordio.WordSize { return s.word }

// Windowed reports whether this is the windowed-mode selector.
func (s *Selector) Windowed() bool { return s.windowed }

// Candidates returns the candidate scheme bytes, fastest first.
func (s *Selector) Candidates() []byte { return s.cands[:s.nc] }

// state is the pooled per-call scratch; every slice is reused across calls
// so the hot path allocates only on first use or growth.
type state struct {
	diff     []byte   // DIFFMS output (chunk-sized)
	mplg     []byte   // tentative MPLG encoding of diff
	bm       []byte   // zero-bitmap scratch for RZE pricing
	alt      []byte   // escape-hatch re-encode scratch
	ratioEnc []byte   // windowed: the ratio candidate's exact encoding
	fcmEnc   []byte   // windowed: the FCM candidate's exact encoding
	w32      []uint32 // word-copy fallback when views are unavailable
	w64      []uint64
	gs       fused.GateStats // the ratio leg's statistics (see gateStats)
}

var statePool = sync.Pool{New: func() any { return new(state) }}

func needBytes(buf *[]byte, n int) []byte {
	if cap(*buf) < n {
		*buf = make([]byte, n, n+n/4+64)
	}
	*buf = (*buf)[:n]
	return *buf
}

func needU32(buf *[]uint32, n int) []uint32 {
	if cap(*buf) < n {
		*buf = make([]uint32, n, n+n/4+16)
	}
	*buf = (*buf)[:n]
	return *buf
}

// words32 aliases b's complete 32-bit words, copying through scratch only
// when the platform refuses a direct view (never for pooled buffers).
func (st *state) words32(b []byte) []uint32 {
	if w, ok := wordio.View32(b); ok {
		return w
	}
	n := len(b) / 4
	w := needU32(&st.w32, n)
	for i := range w {
		w[i] = wordio.U32(b, i)
	}
	return w
}

func (st *state) words64(b []byte) []uint64 {
	if w, ok := wordio.View64(b); ok {
		return w
	}
	n := len(b) / 8
	if cap(st.w64) < n {
		st.w64 = make([]uint64, n, n+n/4+16)
	}
	st.w64 = st.w64[:n]
	for i := range st.w64 {
		st.w64[i] = wordio.U64(b, i)
	}
	return st.w64
}

// nonzeroCount returns the number of non-zero bytes of b at any alignment.
// The gate prices encodings that alias the container arena at arbitrary
// offsets, where an aligned-view fast path cannot engage directly — so walk
// scalar until the base pointer admits a word view, then count zero bytes
// eight at a time with the carry-free SWAR test.
func nonzeroCount(b []byte) int {
	const lo7 = 0x7F7F7F7F7F7F7F7F
	zeros, i := 0, 0
	for ; i < len(b); i++ {
		if w, ok := wordio.View64(b[i:]); ok {
			for _, v := range w {
				t := (v&lo7 + lo7) | v | lo7 // byte = 0xFF iff source byte non-zero
				zeros += bits.OnesCount64(^t &^ uint64(lo7))
			}
			i += len(w) * 8
			break
		}
		if b[i] == 0 {
			zeros++
		}
	}
	for ; i < len(b); i++ {
		if b[i] == 0 {
			zeros++
		}
	}
	return len(b) - zeros
}

// rzeCost returns the exact size RZE would encode src to, by running only
// its bitmap machinery: uvarint length + compressed bitmap + survivors.
func (st *state) rzeCost(src []byte) int {
	bm := needBytes(&st.bm, (len(src)+7)/8)
	nonzero := transforms.ZeroBitmap(bm, src)
	return bitio.UvarintLen(uint64(len(src))) + transforms.RepeatBitmapLen(bm) + nonzero
}

// gateStats fills st.gs from the materialized DIFFMS stream in st.diff,
// exactly as the fused speed kernel's ForwardStatsInto accumulates it.
// W32: the byte-swapped 8-word group ORs of the stream's full 32-word
// blocks — the array that determines exactly which bytes BIT32→RZE keeps:
// BIT lays full blocks out plane-major — output word plane*nb+k holds bit
// (31-plane) of each of block k's 32 words, so its little-endian byte b
// covers source words k*32+(3-b)*8 … +8, and a group OR decides for every
// plane at once whether that output byte survives — plus the stream's
// bytes past the last full block, which BIT copies verbatim. W64: the
// leading-zero histogram the RAZE→RARE model prices.
func (s *Selector) gateStats(st *state) {
	gs := &st.gs
	if s.word == wordio.W32 {
		dw := st.words32(st.diff)
		nb := len(dw) / 32
		ors := needU32(&gs.Ors, nb*4)
		for k := 0; k < nb; k++ {
			base := k * 32
			for b := 0; b < 4; b++ {
				q := base + (3-b)*8
				ors[k*4+b] = dw[q] | dw[q+1] | dw[q+2] | dw[q+3] |
					dw[q+4] | dw[q+5] | dw[q+6] | dw[q+7]
			}
		}
		gs.Words = len(dw)
		gs.Tail = append(gs.Tail[:0], st.diff[nb*128:]...)
		return
	}
	dw := st.words64(st.diff)
	gs.Words = len(dw)
	gs.Hist = [65]int{}
	for _, v := range dw {
		gs.Hist[wordio.Clz64(v)]++
	}
}

// bitRZECost32 returns the exact size of BIT32→RZE over a DIFFMS stream of
// diffLen bytes without running the transpose: the group ORs and tail in
// st.gs (see gateStats) give both RZE's surviving-byte count and its exact
// zero bitmap.
func (st *state) bitRZECost32(diffLen int) int {
	ors, tail := st.gs.Ors, st.gs.Tail
	nonzero := 0
	for _, or := range ors {
		nonzero += bits.OnesCount32(or)
	}
	for _, c := range tail {
		if c != 0 {
			nonzero++
		}
	}
	ng := len(ors)
	bm := needBytes(&st.bm, (diffLen+7)/8)
	pos := 0
	bmw, viewOK := wordio.View32(bm[:4*ng])
	if ng%32 == 0 && viewOK {
		// The plane-major bitmap is the bit-transpose of the group-OR array:
		// plane p's bits are bit (31-p) of each OR, groups MSB-first. Run the
		// register-tile transpose over 32-OR tiles; transposed word p, with
		// its bytes reversed to big-endian order, is plane p's next four
		// bitmap bytes — one word store each, so only the verbatim tail
		// region needs clearing.
		nt := ng / 32 // tiles = bitmap words per plane
		var blk [32]uint32
		for t := 0; t < nt; t++ {
			copy(blk[:], ors[t*32:t*32+32])
			transforms.Transpose32(&blk)
			for p := 0; p < 32; p++ {
				bmw[p*nt+t] = bits.ReverseBytes32(blk[p])
			}
		}
		clear(bm[4*ng:])
		pos = 32 * ng
	} else if ng%8 == 0 {
		clear(bm)
		bi := 0
		for p := 0; p < 32; p++ {
			mask := uint32(0x8000_0000) >> p
			for m := 0; m < ng; m += 8 {
				var v byte
				for j := 0; j < 8; j++ {
					if ors[m+j]&mask != 0 {
						v |= 0x80 >> j
					}
				}
				bm[bi] = v
				bi++
			}
		}
		pos = 32 * ng
	} else {
		clear(bm)
		for p := 0; p < 32; p++ {
			mask := uint32(0x8000_0000) >> p
			for m := 0; m < ng; m++ {
				if ors[m]&mask != 0 {
					bm[pos>>3] |= 0x80 >> (pos & 7)
				}
				pos++
			}
		}
	}
	// Words beyond the last full block and trailing partial-word bytes are
	// copied verbatim by BIT; their bitmap bits come straight from the
	// stream's tail.
	for _, c := range tail {
		if c != 0 {
			bm[pos>>3] |= 0x80 >> (pos & 7)
		}
		pos++
	}
	return bitio.UvarintLen(uint64(diffLen)) + transforms.RepeatBitmapLen(bm) + nonzero
}

// razeRareCost64 is the modeled RAZE→RARE size over the DIFFMS stream's
// leading-zero histogram (the same histogram RAZE's own bestSplit
// minimizes over), scaled by the calibrated multiplier.
func razeRareCost64(hist *[65]int, n, chunkLen int) int {
	model := transforms.SplitModelBits(hist, n) / 8
	return model*razeRareNum/razeRareDen + (chunkLen - n*8) + razeRareFloor
}

// analyze runs the shared DIFFMS stage plus the per-candidate pricing,
// leaving the DIFFMS stream in st.diff and the speed candidate's real
// encoding in st.mplg. preds is indexed like s.cands (fastest first);
// choice is the index of the winner under the speed-bias margin.
func (s *Selector) analyze(st *state, chunk []byte) (preds [4]int, choice int) {
	st.diff = s.diff.ForwardInto(st.diff[:0], chunk)
	st.mplg = s.mplg.ForwardInto(st.mplg[:0], st.diff)
	s.gateStats(st)
	return s.price(st, chunk)
}

// price runs the per-candidate pricing over an already-computed st.diff,
// st.mplg and st.gs (see analyze). The windowed selector prices its two
// ratio candidates exactly, by encoding them through the fused kernels
// into pooled scratch (the winner's bytes are then appended, not
// recomputed); the whole-input selectors keep the calibrated RAZE→RARE
// model.
func (s *Selector) price(st *state, chunk []byte) (preds [4]int, choice int) {
	preds[0] = len(st.mplg)        // speed: exact, already encoded
	preds[1] = st.rzeCost(st.mplg) // balance: exact via RZE's own bitmap machinery
	switch {
	case s.word == wordio.W32:
		preds[2] = st.bitRZECost32(len(chunk))
	case s.windowed:
		st.ratioEnc = schemes[s.cands[2]].Kernel.ForwardInto(st.ratioEnc[:0], chunk)
		preds[2] = len(st.ratioEnc)
		st.fcmEnc = schemes[s.cands[3]].Kernel.ForwardInto(st.fcmEnc[:0], chunk)
		preds[3] = len(st.fcmEnc)
	default:
		preds[2] = razeRareCost64(&st.gs.Hist, st.gs.Words, len(chunk))
	}
	best := preds[0]
	for _, p := range preds[1:s.nc] {
		if p < best {
			best = p
		}
	}
	margin := len(chunk) * s.marginPct / 100
	choice = s.nc - 1
	for i, p := range preds[:s.nc] {
		if p <= best+margin {
			choice = i
			break
		}
	}
	return preds, choice
}

// encodeCandidate appends candidate i's encoding of the already-analyzed
// chunk (st.diff, st.mplg, and for the windowed selector the ratio
// encodings price already produced) to dst.
func (s *Selector) encodeCandidate(st *state, dst []byte, i int) []byte {
	switch i {
	case 0: // speed: the tentative MPLG encoding is the output
		return append(dst, st.mplg...)
	case 1: // balance: RZE over the MPLG encoding
		return transforms.RZE{}.ForwardInto(dst, st.mplg)
	case 3: // windowed FCM candidate: already encoded by price
		return append(dst, st.fcmEnc...)
	default: // ratio tail
		if s.windowed {
			return append(dst, st.ratioEnc...)
		}
		return s.ratioTail.ForwardInto(dst, st.diff)
	}
}

// Prediction is one candidate's predicted encoded size, reported by
// Predict for the fpcz -stats breakdown.
type Prediction struct {
	Scheme    byte
	Predicted int
}

// Predict prices chunk for every candidate (fastest first) and returns the
// index the selector would choose. It is the introspection path behind
// fpcz -stats; ForwardSchemeInto is the hot path.
func (s *Selector) Predict(chunk []byte) ([]Prediction, int) {
	st := statePool.Get().(*state)
	defer statePool.Put(st)
	preds, choice := s.analyze(st, chunk)
	out := make([]Prediction, s.nc)
	for i := range out {
		out[i] = Prediction{Scheme: s.cands[i], Predicted: preds[i]}
	}
	return out, choice
}

// speedWins is the hot-path gate: it decides, from prices no costlier than
// a few passes over the chunk, whether the exact pricing in price is
// guaranteed to choose the speed candidate. The balance candidate is
// bounded from below — an RZE tail keeps every non-zero byte of its input,
// so uvarint(len) + non-zero count elides only the (non-negative)
// compressed bitmap — while the ratio leg is priced from st.gs with the
// very same expression price uses (exact for BIT32→RZE, the calibrated
// model for RAZE→RARE). A true return therefore never changes the
// selection relative to full pricing; a false return merely falls back to
// it. On homogeneous data the gate passes for nearly every chunk, keeping
// auto mode near the speed pipeline's throughput.
func (s *Selector) speedWins(st *state, chunk, mplgEnc []byte) bool {
	thresh := len(mplgEnc) - len(chunk)*s.marginPct/100
	if thresh <= 0 {
		return true // no candidate can beat speed by more than the margin
	}
	if s.windowed && len(mplgEnc) >= len(chunk)*7/8 {
		// The FCM candidate has no cheap lower bound — its wins come from
		// value reuse the diff pipelines cannot see. It wins essentially
		// only where those pipelines compress poorly, so a barely-compressed
		// speed encoding sends the chunk to full (exact) pricing.
		return false
	}
	// Balance (MPLG→RZE): survivors of the MPLG encoding.
	if bitio.UvarintLen(uint64(len(mplgEnc)))+nonzeroCount(mplgEnc) < thresh {
		return false
	}
	if s.word == wordio.W32 {
		// Ratio (BIT→RZE): the exact price — the transpose-tile bitmap
		// build makes it cheap enough to run on every chunk.
		return st.bitRZECost32(len(chunk)) >= thresh
	}
	// Ratio (RAZE→RARE): the same cheap model price uses.
	return razeRareCost64(&st.gs.Hist, st.gs.Words, len(chunk)) >= thresh
}

// ForwardSchemeInto encodes chunk with the predicted-best candidate,
// appending to dst, and returns the grown slice plus the scheme byte for
// the container's per-chunk scheme table. The container layer still applies
// its raw fallback on top (storing the chunk verbatim with SchemeRaw if the
// returned encoding is not smaller).
func (s *Selector) ForwardSchemeInto(dst, chunk []byte) ([]byte, byte) {
	st := statePool.Get().(*state)
	defer statePool.Put(st)

	// Encode the speed candidate straight into dst: it is both the fastest
	// candidate's real output and the balance candidate's input, and when
	// the gate fires (the common case on homogeneous data) it is already in
	// place — no copy, no further pricing. The fused kernel does it in one
	// pass over the chunk, accumulating the gate's statistics as it goes,
	// so no DIFFMS stream is materialized at all on this path; when fusion
	// is unavailable (purego, misaligned chunk) the stage-by-stage path
	// derives the same statistics from the materialized stream.
	start := len(dst)
	ndst, fusedOK := s.fspeed.ForwardStatsInto(dst, chunk, &st.gs)
	if fusedOK {
		dst = ndst
	} else {
		st.diff = s.diff.ForwardInto(st.diff[:0], chunk)
		dst = s.mplg.ForwardInto(dst, st.diff)
		s.gateStats(st)
	}
	if s.speedWins(st, chunk, dst[start:]) {
		schemeCounts[s.cands[0]].Add(1)
		return dst, s.cands[0]
	}
	if fusedOK {
		// A slow candidate might win (rare): materialize the DIFFMS stream
		// after all — the slow candidates' encoders consume it below.
		st.diff = s.diff.ForwardInto(st.diff[:0], chunk)
	}

	// A slow candidate might win: pull the tentative MPLG encoding out of
	// dst and run the exact pricing.
	st.mplg = append(st.mplg[:0], dst[start:]...)
	dst = dst[:start]
	preds, choice := s.price(st, chunk)
	dst = s.encodeCandidate(st, dst, choice)
	scheme := s.cands[choice]

	// Mis-prediction escape hatch: if the winner came in >25% over its
	// prediction (only possible for the modeled RAZE→RARE candidate — the
	// other predictions are exact), encode the runner-up too and keep the
	// smaller result.
	if encLen := len(dst) - start; encLen > preds[choice]+preds[choice]/4 {
		reencodeTried.Add(1)
		runner, runnerPred := -1, 0
		for i, p := range preds[:s.nc] {
			if i != choice && (runner < 0 || p < runnerPred) {
				runner, runnerPred = i, p
			}
		}
		st.alt = s.encodeCandidate(st, st.alt[:0], runner)
		if len(st.alt) < encLen {
			reencodeKept.Add(1)
			dst = append(dst[:start], st.alt...)
			scheme = s.cands[runner]
		}
	}
	schemeCounts[scheme].Add(1)
	return dst, scheme
}

// InverseSchemeInto decodes one chunk according to its scheme byte,
// appending to dst with at most maxDecoded bytes of output. Unknown
// schemes, schemes of the other word size, and SchemeRaw (which the
// container layer must handle itself) fail with an ErrScheme-wrapped
// error before touching the payload.
func (s *Selector) InverseSchemeInto(dst, enc []byte, scheme byte, maxDecoded int) ([]byte, error) {
	if scheme == SchemeRaw {
		return nil, schemeErrf("raw chunk routed to the %s codec", s.word)
	}
	if scheme >= NumSchemes {
		return nil, schemeErrf("unknown scheme %d", scheme)
	}
	if !ValidScheme(s.word, scheme) {
		return nil, schemeErrf("scheme %d (%s) in a %s container", scheme, SchemeName(scheme), s.word)
	}
	return schemes[scheme].codec.InverseInto(dst, enc, maxDecoded)
}

// Forward implements container.Codec: the winning candidate's encoding,
// with the scheme byte dropped. Only useful for size probes — a container
// built through the Codec interface could not be decoded, which is why
// auto mode requires the v2 scheme table (the engine enforces that).
func (s *Selector) Forward(chunk []byte) []byte {
	enc, _ := s.ForwardSchemeInto(nil, chunk)
	return enc
}

// Inverse implements container.Codec; scheme-less decoding is impossible.
func (s *Selector) Inverse(enc []byte) ([]byte, error) {
	return nil, schemeErrf("auto-mode chunks need the container v2 scheme table")
}

// InverseLimit implements container.BudgetCodec; see Inverse.
func (s *Selector) InverseLimit(enc []byte, maxDecoded int) ([]byte, error) {
	return nil, schemeErrf("auto-mode chunks need the container v2 scheme table")
}

// Process-wide selection counters, exported through the fpcd expvar
// metrics snapshot. They count the selector's decisions (before the
// container's raw fallback, which the scheme table itself records).
var (
	schemeCounts  [NumSchemes]atomic.Uint64
	reencodeTried atomic.Uint64
	reencodeKept  atomic.Uint64
)

// CounterSnapshot is a point-in-time copy of the selection counters.
type CounterSnapshot struct {
	// PerScheme maps SchemeName(scheme) to the number of chunks the
	// selector chose that scheme for (schemes never chosen are omitted).
	PerScheme map[string]uint64
	// ReencodeTried counts escape-hatch activations (actual size >125% of
	// predicted); ReencodeKept counts those where the runner-up won.
	ReencodeTried uint64
	ReencodeKept  uint64
}

// Counters returns a snapshot of the process-wide selection counters.
func Counters() CounterSnapshot {
	snap := CounterSnapshot{PerScheme: make(map[string]uint64)}
	for i := range schemeCounts {
		if n := schemeCounts[i].Load(); n > 0 {
			snap.PerScheme[SchemeName(byte(i))] = n
		}
	}
	snap.ReencodeTried = reencodeTried.Load()
	snap.ReencodeKept = reencodeKept.Load()
	return snap
}

// ResetCounters zeroes the selection counters (tests only).
func ResetCounters() {
	for i := range schemeCounts {
		schemeCounts[i].Store(0)
	}
	reencodeTried.Store(0)
	reencodeKept.Store(0)
}
