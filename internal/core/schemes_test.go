package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"fpcompress/internal/container"
	"fpcompress/internal/sdr"
	"fpcompress/internal/selector"
	"fpcompress/internal/transforms"
	"fpcompress/internal/wordio"
)

// sameTransform reports whether a and b are the same transform value: the
// same kernel pointer, or the same pipeline backing array.
func sameTransform(a, b transforms.Transform) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	return va.Type() == vb.Type() && va.Pointer() == vb.Pointer()
}

// TestSchemeTable is the scheme-table conformance test: every row's codec
// encodes byte-identically to its reference pipeline at every input
// alignment, decodes under the exact chunk budget and refuses a budget one
// byte short; and every fixed algorithm routes its chunks through the row
// named by its ID (windowed DPratio through the FCM row).
func TestSchemeTable(t *testing.T) {
	inputs := map[wordio.WordSize][]byte{
		wordio.W32: smoothSP(4096, 1), // one 16 KiB chunk
		wordio.W64: smoothDP(2048, 2),
	}
	for scheme := byte(1); scheme < selector.NumSchemes; scheme++ {
		row, ok := selector.Lookup(scheme)
		if !ok {
			t.Fatalf("scheme %d: no row", scheme)
		}
		if row.Name != selector.SchemeName(scheme) || !selector.ValidScheme(row.Word, scheme) {
			t.Fatalf("scheme %d: row %q/%v disagrees with SchemeName/ValidScheme", scheme, row.Name, row.Word)
		}
		if row.Kernel != nil && !sameTransform(row.Codec(), row.Kernel) {
			t.Fatalf("scheme %d: codec %s is not the row's kernel", scheme, row.Codec().Name())
		}
		if row.Kernel == nil && !sameTransform(row.Codec(), row.Pipeline) {
			t.Fatalf("scheme %d: codec %s is not the row's pipeline", scheme, row.Codec().Name())
		}
		data := inputs[row.Word]
		for _, n := range []int{len(data), len(data) - 3} {
			for off := 0; off < 8; off++ {
				name := fmt.Sprintf("%s/n=%d/off=%d", row.Name, n, off)
				buf := make([]byte, n+8)
				in := buf[off : off+n]
				copy(in, data)
				enc := row.Codec().ForwardInto(nil, in)
				if want := row.Pipeline.ForwardInto(nil, in); !bytes.Equal(enc, want) {
					t.Fatalf("%s: codec encoding differs from the reference pipeline", name)
				}
				dec, err := row.Codec().InverseInto(nil, enc, n)
				if err != nil || !bytes.Equal(dec, in) {
					t.Fatalf("%s: decode under the exact budget failed: %v", name, err)
				}
				if _, err := row.Codec().InverseInto(nil, enc, n-1); err == nil {
					t.Fatalf("%s: decode accepted a budget one byte short", name)
				}
			}
		}
	}

	check := func(a *Algorithm, scheme byte) {
		t.Helper()
		row, _ := selector.Lookup(scheme)
		cc, ok := a.ChunkCodec().(chunkCodec)
		if !ok || !sameTransform(cc.Transform, row.Codec()) || !sameTransform(a.Chunked, row.Pipeline) {
			t.Errorf("%s does not route through scheme %d (%s)", a.Name(), scheme, row.Name)
		}
	}
	for _, id := range []ID{SPspeed, SPratio, DPspeed, DPratio, SPbalance, DPbalance} {
		a, err := New(id)
		if err != nil {
			t.Fatal(err)
		}
		check(a, byte(id))
	}
	w, err := NewWindowed(DPratio)
	if err != nil {
		t.Fatal(err)
	}
	check(w, selector.SchemeFCMRazeRare64)
}

// TestAutoMisalignedInput drives the selector's stage-by-stage gate path:
// the fused speed kernels decline misaligned chunks, so auto mode over an
// input sliced at an odd offset prices every chunk from the materialized
// DIFFMS stream instead of the fused pass's statistics. Both paths must
// pick the same scheme for every chunk and write the same container.
func TestAutoMisalignedInput(t *testing.T) {
	perDomain := func(files []*sdr.File) []byte {
		var out []byte
		seen := map[string]bool{}
		for _, f := range files {
			if !seen[f.Domain] {
				seen[f.Domain] = true
				out = append(out, f.Data...)
			}
		}
		return out
	}
	cfg := sdr.Config{ValuesPerFile: 1 << 13}
	sp, dp := perDomain(sdr.SingleFiles(cfg)), perDomain(sdr.DoubleFiles(cfg))
	auto32, _ := New(Auto32)
	auto64, _ := New(Auto64)
	auto64w, _ := NewWindowed(Auto64)
	for _, tc := range []struct {
		a      *Algorithm
		corpus []byte
	}{{auto32, sp}, {auto64, dp}, {auto64w, dp}} {
		for off := 1; off < 8; off++ {
			name := fmt.Sprintf("%s/off=%d", tc.a.Name(), off)
			misaligned := tc.corpus[off:]
			aligned := append([]byte(nil), misaligned...)
			want := tc.a.Compress(aligned, container.Params{})
			got := tc.a.Compress(misaligned, container.Params{})
			hw, err := container.Parse(want)
			if err != nil {
				t.Fatal(err)
			}
			hg, err := container.Parse(got)
			if err != nil {
				t.Fatal(err)
			}
			seen := map[byte]bool{}
			for i := 0; i < hw.ChunkCount; i++ {
				if s, g := hw.ChunkScheme(i), hg.ChunkScheme(i); s != g {
					t.Fatalf("%s: chunk %d scheme %s misaligned, %s aligned",
						name, i, selector.SchemeName(g), selector.SchemeName(s))
				}
				seen[hw.ChunkScheme(i)] = true
			}
			if len(seen) < 2 {
				t.Fatalf("%s: every chunk picked one scheme; the corpus no longer exercises the slow-candidate path", name)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: misaligned container differs from the aligned one", name)
			}
		}
	}
}
