package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one operation
// share Trace; Parent links a call to the call that caused it.
type span struct {
	Trace, ID, Parent uint64
	Name              string
	Start, End        time.Duration // since the tracer's origin
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory for the traced run. Parents are explicit:
// the benchmark's own steps name their parent, a call across an RPC hop
// carries its span in the wire message's trace fields, and a
// component's outgoing call nests under the component's open handler
// span (see decor.go). A nil tracer, or one switched off, records
// nothing.
type tracer struct {
	origin time.Time
	on     atomic.Bool
	nextID atomic.Uint64
	// ambient parents the spans the runtime opens while the single
	// session-churn caller deploys: dials, listens and activations.
	ambient atomic.Pointer[openSpan]

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// openSpan is a started span; end records it.
type openSpan struct {
	t *tracer
	s span
}

// start opens a span under parent, or a new trace root when parent is
// nil.
func (t *tracer) start(name string, parent *openSpan) *openSpan {
	if parent != nil {
		return t.startRemote(name, parent.s.Trace, parent.s.ID)
	}
	return t.startRemote(name, 0, 0)
}

// startRemote opens a span whose parent arrived over the wire; a zero
// trace starts a new root.
func (t *tracer) startRemote(name string, trace, parent uint64) *openSpan {
	if t == nil || !t.on.Load() {
		return nil
	}
	o := &openSpan{t: t}
	o.s.ID = t.nextID.Add(1)
	if trace == 0 {
		trace, parent = o.s.ID, 0
	}
	o.s.Name, o.s.Trace, o.s.Parent = name, trace, parent
	o.s.Start = time.Since(t.origin)
	return o
}

func (o *openSpan) end() {
	if o == nil {
		return
	}
	o.s.End = time.Since(o.t.origin)
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// rename relabels a span before it ends, once its outcome is known.
func (o *openSpan) rename(name string) {
	if o != nil {
		o.s.Name = name
	}
}

// ids returns the span's wire context for stamping an outgoing call.
func (o *openSpan) ids() (trace, id uint64) {
	if o == nil {
		return 0, 0
	}
	return o.s.Trace, o.s.ID
}

type spanKey struct{}

// withSpan carries a client-side parent span through the program's
// context-taking call paths to the endpoint decorator.
func withSpan(ctx context.Context, s *openSpan) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

func spanFrom(ctx context.Context) *openSpan {
	s, _ := ctx.Value(spanKey{}).(*openSpan)
	return s
}

// snapshot returns the completed spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps the spans as CSV (trace,id,parent,name,start_ns,end_ns).
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "trace,id,parent,name,start_ns,end_ns")
	for _, s := range t.snapshot() {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", s.Trace, s.ID, s.Parent, s.Name, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanTree indexes completed spans for self-time analysis.
type spanTree struct {
	byID     map[uint64]*span
	children map[uint64][]*span
	roots    []*span
}

func buildTree(spans []span) *spanTree {
	t := &spanTree{byID: make(map[uint64]*span, len(spans)), children: map[uint64][]*span{}}
	for i := range spans {
		t.byID[spans[i].ID] = &spans[i]
	}
	for i := range spans {
		s := &spans[i]
		if _, ok := t.byID[s.Parent]; s.Parent != 0 && ok {
			t.children[s.Parent] = append(t.children[s.Parent], s)
		} else {
			t.roots = append(t.roots, s)
		}
	}
	sort.Slice(t.roots, func(i, j int) bool { return t.roots[i].Start < t.roots[j].Start })
	return t
}

// self is a span's duration minus its children's. It is not clipped at
// zero: when two requests overlap inside one component instance, an
// outgoing call may nest under the wrong one of them, and unclipped
// self times still sum to the right total per layer.
func (t *spanTree) self(s *span) time.Duration {
	d := s.dur()
	for _, c := range t.children[s.ID] {
		d -= c.dur()
	}
	return d
}

// selfByLayer sums self time per layer over the subtree rooted at s;
// layer maps a span name to its layer.
func (t *spanTree) selfByLayer(s *span, layer func(name string) string, into map[string]time.Duration) {
	into[layer(s.Name)] += t.self(s)
	for _, c := range t.children[s.ID] {
		t.selfByLayer(c, layer, into)
	}
}

// walk visits every span of the subtree rooted at s.
func (t *spanTree) walk(s *span, fn func(*span)) {
	fn(s)
	for _, c := range t.children[s.ID] {
		t.walk(c, fn)
	}
}

// blockingPath attributes the time of every root span named root to
// layers: the self time of each span in the root's subtree, summed per
// layer and averaged over the roots. It also returns each root's sum,
// which equals its duration.
func (t *spanTree) blockingPath(root string, layer func(name string) string) (map[string]float64, samples) {
	totals := map[string]time.Duration{}
	var sums samples
	for _, r := range t.roots {
		if r.Name != root {
			continue
		}
		per := map[string]time.Duration{}
		t.selfByLayer(r, layer, per)
		var sum time.Duration
		for k, v := range per {
			totals[k] += v
			sum += v
		}
		sums = append(sums, ms(sum))
	}
	out := map[string]float64{}
	for k, v := range totals {
		out[k] = ms(v) / float64(len(sums))
	}
	return out, sums
}
