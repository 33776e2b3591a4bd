package main

import (
	"bytes"
	"fmt"
	"time"

	"fpcompress/internal/core"
	"fpcompress/internal/simd"
	"fpcompress/internal/transforms/fused"
)

// kernelSpec names one fused kernel and the chunks it sees in its
// pipeline: raw single- or double-precision chunks, or, for the DPratio
// tail, chunks of the whole-input FCM stream.
type kernelSpec struct {
	name  string
	k     fused.Kernel
	input string // "sp", "dp" or "fcm"
}

func kernelSpecs() []kernelSpec {
	return []kernelSpec{
		{"Speed32", fused.NewSpeed32(), "sp"},
		{"Ratio32", fused.NewRatio32(), "sp"},
		{"Speed64", fused.NewSpeed64(), "dp"},
		{"Ratio64", fused.NewRatio64(), "fcm"},
		{"FCMRatio64", fused.NewFCMRatio64(), "dp"},
	}
}

// stageNames lists each kernel's reference stages in pipeline order.
func stageNames(k fused.Kernel) []string {
	var out []string
	for _, st := range k.Pipeline() {
		out = append(out, st.Name())
	}
	return out
}

// coderTimes holds median nanoseconds for one pass over a chunk set, with
// the SIMD dispatch enabled and disabled.
type coderTimes struct {
	fwd, inv, fwdScalar, invScalar float64
	inBytes                        int
}

type forwardFunc func(dst, src []byte) []byte
type inverseFunc func(dst, enc []byte, maxDecoded int) ([]byte, error)

// measureCoder times fwd over chunks and inv over their encodings, reps
// times in each SIMD mode, alternating the mode order between repetitions
// so neither mode always runs on a warmer cache. It checks that both modes
// encode byte-identically and that every chunk round-trips, and returns
// the encodings (the next stage's input).
func measureCoder(name string, fwd forwardFunc, inv inverseFunc, chunks [][]byte, reps int) (coderTimes, [][]byte, error) {
	defer setSIMD(simd.Enabled())
	ct := coderTimes{}
	encs := make([][]byte, len(chunks))
	for i, c := range chunks {
		ct.inBytes += len(c)
		setSIMD(true)
		encs[i] = fwd(nil, c)
		setSIMD(false)
		if alt := fwd(nil, c); !bytes.Equal(alt, encs[i]) {
			return ct, nil, fmt.Errorf("%s: chunk %d encodes differently with SIMD disabled", name, i)
		}
		for _, on := range []bool{true, false} {
			setSIMD(on)
			dec, err := inv(nil, encs[i], len(c))
			if err != nil {
				return ct, nil, fmt.Errorf("%s: chunk %d: %w", name, i, err)
			}
			if !bytes.Equal(dec, c) {
				return ct, nil, fmt.Errorf("%s: chunk %d does not round-trip (simd %v)", name, i, on)
			}
		}
	}
	var fwdT, invT [2][]float64 // index 0: SIMD on, 1: off
	var dst []byte
	for r := 0; r < reps; r++ {
		for j := 0; j < 2; j++ {
			mode := (r + j) % 2
			setSIMD(mode == 0)
			t := time.Now()
			for _, c := range chunks {
				dst = fwd(dst[:0], c)
			}
			fwdT[mode] = append(fwdT[mode], float64(time.Since(t)))
			t = time.Now()
			for i, e := range encs {
				var err error
				if dst, err = inv(dst[:0], e, len(chunks[i])); err != nil {
					return ct, nil, fmt.Errorf("%s: %w", name, err)
				}
			}
			invT[mode] = append(invT[mode], float64(time.Since(t)))
		}
	}
	ct.fwd, ct.fwdScalar = median(fwdT[0]), median(fwdT[1])
	ct.inv, ct.invScalar = median(invT[0]), median(invT[1])
	return ct, encs, nil
}

func setSIMD(on bool) {
	if on {
		simd.Enable()
	} else {
		simd.Disable()
	}
}

// mbps converts bytes per nanosecond pass time to MB/s.
func mbps(bytes int, ns float64) float64 { return ratioOf(float64(bytes)*1e3, ns) }

// kernelMetrics measures every fused kernel and, stage by stage, its
// reference pipeline on the chunk sets of one workload: each stage is fed
// the real output of the stage before it, so RZE sees BIT32 output and
// RAZE sees DIFFMS64 output, never raw data.
func kernelMetrics(sets map[string][][]byte, reps int, m metrics) error {
	for _, ks := range kernelSpecs() {
		chunks := sets[ks.input]
		kt, _, err := measureCoder(ks.name, ks.k.ForwardInto, ks.k.InverseInto, chunks, reps)
		if err != nil {
			return err
		}
		m.set("fused."+ks.name+".fwd_mbps", mbps(kt.inBytes, kt.fwd), len(chunks))
		m.set("fused."+ks.name+".inv_mbps", mbps(kt.inBytes, kt.inv), len(chunks))
		m.set("simd."+ks.name+".fwd_x", ratioOf(kt.fwdScalar, kt.fwd), len(chunks))
		m.set("simd."+ks.name+".inv_x", ratioOf(kt.invScalar, kt.inv), len(chunks))
		composed := 0.0
		in := chunks
		for _, st := range ks.k.Pipeline() {
			pre := "transforms." + ks.name + "." + st.Name()
			stt, out, err := measureCoder(pre, st.ForwardInto, st.InverseInto, in, reps)
			if err != nil {
				return err
			}
			composed += stt.fwd + stt.inv
			m.set(pre+".fwd_mbps", mbps(stt.inBytes, stt.fwd), len(in))
			m.set(pre+".inv_mbps", mbps(stt.inBytes, stt.inv), len(in))
			sp := "simd." + ks.name + "." + st.Name()
			m.set(sp+".fwd_x", ratioOf(stt.fwdScalar, stt.fwd), len(in))
			m.set(sp+".inv_x", ratioOf(stt.invScalar, stt.inv), len(in))
			in = out
		}
		m.set("transforms."+ks.name+".fused_x", ratioOf(composed, kt.fwd+kt.inv), len(chunks))
	}
	return nil
}

// sampleChunks cuts up to n chunks of size cs, evenly spaced, from the
// whole chunks of the given buffers.
func sampleChunks(bufs [][]byte, cs, n int) [][]byte {
	var all [][]byte
	for _, b := range bufs {
		for off := 0; off+cs <= len(b); off += cs {
			all = append(all, b[off:off+cs])
		}
	}
	if len(all) <= n {
		return all
	}
	out := make([][]byte, n)
	for i := range out {
		out[i] = all[i*len(all)/n]
	}
	return out
}

// chunkSets samples the chunks the kernels see: raw single- and
// double-precision chunks, and chunks of the FCM stream that DPratio's
// whole-input pre-stage makes from a contiguous stretch of the data.
func chunkSets(sp, dp [][]byte, sz sizes) map[string][][]byte {
	cs := 16 << 10
	region := dp[0][:min(len(dp[0]), sz.kernelChunks*cs)]
	fcm := fcmStream(region)
	return map[string][][]byte{
		"sp":  sampleChunks(sp, cs, sz.kernelChunks),
		"dp":  sampleChunks(dp, cs, sz.kernelChunks),
		"fcm": sampleChunks([][]byte{fcm}, cs, sz.kernelChunks),
	}
}

// fcmStream is DPratio's whole-input pre-stage output for b.
func fcmStream(b []byte) []byte {
	a, err := core.New(core.DPratio)
	if err != nil {
		panic(err) // unreachable: DPratio is a core constant
	}
	return a.Pre.ForwardInto(nil, b)
}
