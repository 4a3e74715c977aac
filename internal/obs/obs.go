// Package obs is the repo's observability layer: named counters, gauges
// and timers plus hierarchical spans, carried through the existing
// ...Ctx API via a Recorder stored in the context.
//
// The contract is zero overhead when disabled: every operation first
// loads the Recorder from the context (or a cached field) and returns
// immediately when it is nil — no clock reads, no allocations, no
// atomic traffic.  Instrumented code therefore never needs an "if
// telemetry" branch of its own, and a bitwise-equivalence test
// (core.TestObsBitwiseInert) proves that enabling telemetry does not
// perturb any numerical result.
//
// All Recorder methods are safe for concurrent use: the par worker
// pools update counters and open sibling spans from multiple
// goroutines.  Spans with the same parent and name merge into one node
// (count + total duration), so loops and parallel fan-outs produce a
// compact tree instead of one node per iteration.
package obs

import (
	"context"
	"sort"
	"sync"
	"time"
)

// ctxKey is the private context key type for the Recorder.
type ctxKey struct{}

// With returns a context carrying the Recorder.  A nil Recorder is
// allowed and yields the same behaviour as a bare context.
func With(ctx context.Context, r *Recorder) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, r)
}

// From extracts the Recorder from the context, or nil when telemetry is
// disabled.  All package operations treat a nil receiver as a no-op, so
// callers can use the result unconditionally.
func From(ctx context.Context) *Recorder {
	if ctx == nil {
		return nil
	}
	r, _ := ctx.Value(ctxKey{}).(*Recorder)
	return r
}

// Recorder accumulates telemetry for one run.  The zero value is not
// usable; construct with New.  A nil *Recorder is the disabled state:
// every method on it returns immediately.
type Recorder struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]float64
	timers   map[string]*timerCell
	root     *spanNode
}

// timerCell is one named duration accumulator.
type timerCell struct {
	count int64
	total time.Duration
}

// spanNode is one node of the hierarchical span tree.  Children with
// the same name merge into a single node.
type spanNode struct {
	name     string
	count    int64
	total    time.Duration
	children map[string]*spanNode
	order    []string // child names in first-seen order
}

// New returns an enabled Recorder.
func New() *Recorder {
	return &Recorder{
		counters: map[string]int64{},
		gauges:   map[string]float64{},
		timers:   map[string]*timerCell{},
		root:     &spanNode{name: ""},
	}
}

// Add increments the named counter by delta.  No-op on a nil Recorder.
func (r *Recorder) Add(name string, delta int64) {
	if r == nil || delta == 0 {
		return
	}
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// Set records the last value of the named gauge.  No-op on nil.
func (r *Recorder) Set(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = v
	r.mu.Unlock()
}

// Observe adds one sample to the named timer.  No-op on nil.
func (r *Recorder) Observe(name string, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	c := r.timers[name]
	if c == nil {
		c = &timerCell{}
		r.timers[name] = c
	}
	c.count++
	c.total += d
	r.mu.Unlock()
}

// Counter returns the current value of a counter (0 when absent or nil).
func (r *Recorder) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// Gauge returns the last value of a gauge (0 when absent or nil).
func (r *Recorder) Gauge(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gauges[name]
}

// child finds or creates the named child of parent.  Caller holds r.mu.
func (n *spanNode) child(name string) *spanNode {
	if n.children == nil {
		n.children = map[string]*spanNode{}
	}
	c := n.children[name]
	if c == nil {
		c = &spanNode{name: name}
		n.children[name] = c
		n.order = append(n.order, name)
	}
	return c
}

// Span is an open span handle.  The zero value (disabled telemetry) is
// valid: End on it is a no-op with no clock read.
type Span struct {
	r     *Recorder
	node  *spanNode
	start time.Time
}

// Start opens a span named name under the context's current span (or
// the root) and returns a derived context whose subsequent Start calls
// nest under it.  When telemetry is disabled it returns ctx unchanged
// and a zero Span — no allocation, no clock read.
func Start(ctx context.Context, name string) (context.Context, Span) {
	r := From(ctx)
	if r == nil {
		return ctx, Span{}
	}
	parent, _ := ctx.Value(spanKey{}).(*spanNode)
	if parent == nil {
		parent = r.root
	}
	r.mu.Lock()
	node := parent.child(name)
	r.mu.Unlock()
	return context.WithValue(ctx, spanKey{}, node), Span{r: r, node: node, start: time.Now()}
}

// spanKey is the private context key for the current span node.
type spanKey struct{}

// End closes the span, merging its duration into the named node.
// No-op on the zero Span.
func (s Span) End() {
	if s.r == nil {
		return
	}
	d := time.Since(s.start)
	s.r.mu.Lock()
	s.node.count++
	s.node.total += d
	s.r.mu.Unlock()
}

// Add increments a counter via the context's Recorder (no-op when
// telemetry is disabled).
func Add(ctx context.Context, name string, delta int64) { From(ctx).Add(name, delta) }

// Set records a gauge via the context's Recorder.
func Set(ctx context.Context, name string, v float64) { From(ctx).Set(name, v) }

// SpanStat is one exported span-tree node.
type SpanStat struct {
	Name     string     `json:"name"`
	Count    int64      `json:"count"`
	TotalNS  int64      `json:"total_ns"`
	Children []SpanStat `json:"children,omitempty"`
}

// TimerStat is one exported timer.
type TimerStat struct {
	Count   int64 `json:"count"`
	TotalNS int64 `json:"total_ns"`
}

// Snapshot is a consistent copy of a Recorder's state, safe to read
// and serialize without further locking.
type Snapshot struct {
	Counters map[string]int64     `json:"counters,omitempty"`
	Gauges   map[string]float64   `json:"gauges,omitempty"`
	Timers   map[string]TimerStat `json:"timers,omitempty"`
	Spans    []SpanStat           `json:"spans,omitempty"`
}

// Snapshot returns a deep copy of the current state.  Nil Recorder
// yields an empty snapshot.
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters: make(map[string]int64, len(r.counters)),
		Gauges:   make(map[string]float64, len(r.gauges)),
		Timers:   make(map[string]TimerStat, len(r.timers)),
	}
	for k, v := range r.counters {
		s.Counters[k] = v
	}
	for k, v := range r.gauges {
		s.Gauges[k] = v
	}
	for k, c := range r.timers {
		s.Timers[k] = TimerStat{Count: c.count, TotalNS: int64(c.total)}
	}
	s.Spans = exportChildren(r.root)
	return s
}

// exportChildren converts a node's children (first-seen order) into
// SpanStats.  Caller holds r.mu.
func exportChildren(n *spanNode) []SpanStat {
	if len(n.order) == 0 {
		return nil
	}
	out := make([]SpanStat, 0, len(n.order))
	for _, name := range n.order {
		c := n.children[name]
		out = append(out, SpanStat{
			Name:     c.name,
			Count:    c.count,
			TotalNS:  int64(c.total),
			Children: exportChildren(c),
		})
	}
	return out
}

// sortedKeys returns the map keys in lexical order (export helper).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
