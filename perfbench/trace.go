package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"fpcompress/internal/container"
	"fpcompress/internal/transforms"
)

// Span is one timed call at a layer boundary. Spans of one operation share
// Op. Parent is the span whose call made this one (0 for a root); the CRC
// replay, which repeats work the engine does inside its own call, is
// attached to that engine span too. Count > 1 marks a replay loop
// aggregated into one span, such as the CRC pass over every chunk of one
// container.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int    `json:"count,omitempty"`
}

func (s Span) dur() float64 { return float64(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use because the serve workload records from one goroutine
// per connection.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// add records a finished span and returns its id.
func (t *tracer) add(op, parent int, name string, start, end int64, count int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end, Count: count})
	return id
}

// reparent makes the children spans of parent; used when the parent span can
// only be recorded after the children it encloses.
func (t *tracer) reparent(children []int, parent int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range children {
		t.spans[c-1].Parent = parent
	}
}

// selfTimes returns, for every span with children, its duration minus the
// durations of its direct children, in nanoseconds.
func (t *tracer) selfTimes() map[int]float64 {
	child := make(map[int]float64)
	for i := range t.spans {
		if p := t.spans[i].Parent; p != 0 {
			child[p] += t.spans[i].dur()
		}
	}
	self := make(map[int]float64, len(child))
	for id, c := range child {
		self[id] = t.spans[id-1].dur() - c
	}
	return self
}

func (t *tracer) span(id int) Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1]
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// chunkSpans collects the per-chunk codec spans recorded while the
// container engine runs a replay; they become children of the engine's
// span once it has ended.
type chunkSpans struct {
	tr  *tracer
	op  int
	mu  sync.Mutex
	ids []int
}

func (c *chunkSpans) record(name string, start int64) {
	id := c.tr.add(c.op, 0, name, start, c.tr.now(), 1)
	c.mu.Lock()
	c.ids = append(c.ids, id)
	c.mu.Unlock()
}

// intoWrap times every call the container engine makes into a fixed
// pipeline's chunk codec. It implements exactly the interfaces of the
// codec it wraps (container.IntoCodec), so the engine takes the same path
// and writes the same bytes.
type intoWrap struct {
	c  container.IntoCodec
	cs *chunkSpans
}

func (w intoWrap) Forward(chunk []byte) []byte { return w.ForwardInto(nil, chunk) }
func (w intoWrap) Inverse(enc []byte) ([]byte, error) {
	return w.InverseInto(nil, enc, transforms.NoLimit)
}
func (w intoWrap) InverseLimit(enc []byte, maxDecoded int) ([]byte, error) {
	return w.InverseInto(nil, enc, maxDecoded)
}
func (w intoWrap) ForwardInto(dst, chunk []byte) []byte {
	s := w.cs.tr.now()
	dst = w.c.ForwardInto(dst, chunk)
	w.cs.record("codec.ForwardInto", s)
	return dst
}
func (w intoWrap) InverseInto(dst, enc []byte, maxDecoded int) ([]byte, error) {
	s := w.cs.tr.now()
	dst, err := w.c.InverseInto(dst, enc, maxDecoded)
	w.cs.record("codec.InverseInto", s)
	return dst, err
}

// schemeCodec is the selector's codec surface (container.SchemeCodec plus
// the budgeted inverse).
type schemeCodec interface {
	container.SchemeCodec
	InverseLimit(enc []byte, maxDecoded int) ([]byte, error)
}

// schemeWrap is intoWrap for the per-chunk selector of the auto modes.
type schemeWrap struct {
	c  schemeCodec
	cs *chunkSpans
}

func (w schemeWrap) Forward(chunk []byte) []byte        { return w.c.Forward(chunk) }
func (w schemeWrap) Inverse(enc []byte) ([]byte, error) { return w.c.Inverse(enc) }
func (w schemeWrap) InverseLimit(enc []byte, maxDecoded int) ([]byte, error) {
	return w.c.InverseLimit(enc, maxDecoded)
}
func (w schemeWrap) ForwardSchemeInto(dst, chunk []byte) ([]byte, byte) {
	s := w.cs.tr.now()
	dst, scheme := w.c.ForwardSchemeInto(dst, chunk)
	w.cs.record("codec.ForwardSchemeInto", s)
	return dst, scheme
}
func (w schemeWrap) InverseSchemeInto(dst, enc []byte, scheme byte, maxDecoded int) ([]byte, error) {
	s := w.cs.tr.now()
	dst, err := w.c.InverseSchemeInto(dst, enc, scheme, maxDecoded)
	w.cs.record("codec.InverseSchemeInto", s)
	return dst, err
}

// wrapCodec returns a timing wrapper with the same interfaces as c.
func wrapCodec(c container.Codec, cs *chunkSpans) (container.Codec, error) {
	switch cc := c.(type) {
	case schemeCodec:
		return schemeWrap{c: cc, cs: cs}, nil
	case container.IntoCodec:
		return intoWrap{c: cc, cs: cs}, nil
	}
	return nil, fmt.Errorf("perfbench: no timing wrapper for codec %T", c)
}
