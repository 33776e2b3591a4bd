package main

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const specFile = "../BENCHMARK.json"

// TestCatalogMatchesSpec keeps the program's metric lists and
// BENCHMARK.json in step.
func TestCatalogMatchesSpec(t *testing.T) {
	s, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.EndToEnd, gatedE2E) {
		t.Errorf("end_to_end in %s:\n%v\nprogram:\n%v", specFile, s.EndToEnd, gatedE2E)
	}
	if !reflect.DeepEqual(s.PerLayer, layerMetrics()) {
		t.Errorf("per_layer in %s differs from layerMetrics()", specFile)
	}
}

// TestSmoke runs every workload, untraced and traced, at smoke size and
// checks the summary line.
func TestSmoke(t *testing.T) {
	s, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				var out, errb bytes.Buffer
				code := run([]string{"-workload", w, "-seed", "7", "-seconds", "1", "-trace", trace,
					"-smoke", "-spec", specFile, "-out", t.TempDir()}, &out, &errb)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var sum map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
					t.Fatalf("last line is not JSON: %v", err)
				}
				if len(sum) != 4 || sum["correct"] == nil || sum["attempted"] == nil || sum["failed"] == nil || sum["metrics"] == nil {
					t.Fatalf("summary keys: %s", lines[len(lines)-1])
				}
				var m map[string]valued
				if err := json.Unmarshal(sum["metrics"], &m); err != nil {
					t.Fatal(err)
				}
				want := s.summaryMetrics(trace == "1")
				if len(m) != len(want) {
					t.Errorf("%d metrics, want %d", len(m), len(want))
				}
				for _, ms := range want {
					if v, ok := m[ms.Name]; !ok || v.Unit != ms.Unit {
						t.Errorf("metric %s: %+v", ms.Name, v)
					}
				}
			})
		}
	}
}

// TestMismatchCounts checks the correctness gate: a ReadAt range that
// differs from its source counts as a failed operation.
func TestMismatchCounts(t *testing.T) {
	sz := smokeSizes()
	set := setupArchive("archive-speed", 3, sz, defaultLLC)
	res := newResult(fingerprint(), "archive-speed", 3, 1, false, true)
	l := &archiveLoop{set: set, res: res}
	l.round()
	if res.Failed != 0 {
		t.Fatalf("clean round failed: %v", res.Errors)
	}
	for _, o := range set.ops {
		o.in = bytes.Clone(o.in)
		for i := range o.in {
			o.in[i] ^= 0xff
		}
	}
	attempted := res.Attempted
	_, _, warm := l.reads(rand.New(rand.NewPCG(1, 2)), 10)
	if want := 10 + warm*batchSize; res.Attempted-attempted != want || res.Failed != want {
		t.Fatalf("%d of %d corrupted reads counted as failed (%d attempted)", res.Failed, want, res.Attempted-attempted)
	}
}

// TestCheckRejectsIncomplete checks that a result missing a metric, or
// carrying a non-finite one, is refused before anything is printed.
func TestCheckRejectsIncomplete(t *testing.T) {
	s := &spec{EndToEnd: []metricSpec{{"ratio", "x"}, {"setup_s", "s"}}}
	r := newResult(Host{}, "serve", 1, 1, false, true)
	r.Attempted = 1
	r.Metrics.set("ratio", 2, 1)
	if err := r.check(s); err == nil || !strings.Contains(err.Error(), "setup_s missing") {
		t.Fatalf("missing metric not reported: %v", err)
	}
	r.Metrics.set("setup_s", quantile(nil, 0.5), 0)
	if err := r.check(s); err == nil || !strings.Contains(err.Error(), "not finite") {
		t.Fatalf("NaN metric not reported: %v", err)
	}
	r.Metrics.set("setup_s", 0.5, 1)
	if err := r.check(s); err != nil {
		t.Fatal(err)
	}
}

// TestCompareRefusesOtherHost checks that results from different hosts
// are not compared.
func TestCompareRefusesOtherHost(t *testing.T) {
	dir := t.TempDir()
	a := newResult(Host{CPUModel: "a", NProc: 2, GitSHA: "x"}, "serve", 1, 1, false, false)
	b := newResult(Host{CPUModel: "a", NProc: 2, GitSHA: "y"}, "serve", 2, 1, false, false)
	a.Metrics.set("ratio", 2, 1)
	b.Metrics.set("ratio", 3, 1)
	pa, err := a.save(filepath.Join(dir, "a"))
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.save(filepath.Join(dir, "b"))
	if err != nil {
		t.Fatal(err)
	}
	if err := compare(&bytes.Buffer{}, pa, pb); err != nil {
		t.Fatalf("same host, different commit: %v", err)
	}
	b.Host.NProc = 4
	if pb, err = b.save(filepath.Join(dir, "b")); err != nil {
		t.Fatal(err)
	}
	if err := compare(&bytes.Buffer{}, pa, pb); err == nil || !strings.Contains(err.Error(), "different hosts") {
		t.Fatalf("different hosts compared: %v", err)
	}
}

// TestAssembleDeterministic checks that a seed fixes the inputs.
func TestAssembleDeterministic(t *testing.T) {
	c := newCorpus(1 << 12)
	gen := func(seed uint64) []byte {
		return newSlicer(rand.New(rand.NewPCG(seed, 0)), c.dp).assemble(100<<10, 1<<10, 8<<10)
	}
	if !bytes.Equal(gen(5), gen(5)) {
		t.Fatal("same seed, different input")
	}
	if bytes.Equal(gen(5), gen(6)) {
		t.Fatal("different seeds, same input")
	}
	if len(gen(5)) != 100<<10 {
		t.Fatalf("length %d", len(gen(5)))
	}
}
