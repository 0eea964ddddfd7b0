// Package telemetry is the instrumentation substrate of the compression
// pipeline: a registry of named counters, gauges, and power-of-two-bucket
// histograms, plus stage-scoped spans forming a hierarchical wall-time
// tree (see span.go) and deterministic text/JSON renderers (see sink.go).
//
// The package is stdlib-only and allocation-conscious. Its central design
// point is that a disabled collector is a nil pointer: every accessor and
// every mutator is safe to call on a nil receiver and short-circuits
// immediately, so an instrumented hot loop pays exactly one nil check per
// event when telemetry is off. Instruments are resolved by name once, at
// setup time (e.g. in an encoder constructor), and the resulting possibly
// nil handles are used unconditionally afterwards:
//
//	ctr := tel.Counter("core.2d.spec_trials") // nil when tel == nil
//	for ... { ctr.Inc() }                     // no-op nil check when disabled
//
// All instruments are safe for concurrent use; the simulated MPI ranks
// update shared counters from many goroutines.
package telemetry

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Collector owns the instrument registry and the span tree of one run.
// The zero value is not usable; construct with New. A nil *Collector is
// the disabled state: all methods are nil-safe no-ops.
type Collector struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	now      func() time.Time // injectable clock for deterministic tests

	// spans is a ring of the most recent root-level spans: filled in
	// creation order up to MaxRootSpans, then overwritten oldest first,
	// with spanHead the slot of the oldest retained span. A long-lived
	// collector (topozipd opens a root span per request) thereby keeps
	// bounded memory; dropped counts the evicted root spans.
	spans    []*Span
	spanHead int
	dropped  int64

	// epoch is the start time of the first root span; every span's
	// exported start offset (SpanSnapshot.StartNS) is relative to it, so
	// trace exports are deterministic under an injected clock.
	epoch    time.Time
	epochSet bool
}

// MaxRootSpans is the number of most recent root spans a collector
// retains; older root spans (with their subtrees) are dropped and
// counted in Snapshot.DroppedSpans. Counters, gauges and histograms are
// unaffected.
const MaxRootSpans = 4096

// New returns an enabled collector.
func New() *Collector {
	return &Collector{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		now:      time.Now,
	}
}

// Enabled reports whether the collector records anything.
func (c *Collector) Enabled() bool { return c != nil }

// SetClock replaces the wall clock, for deterministic span durations in
// tests.
func (c *Collector) SetClock(now func() time.Time) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.now = now
	c.mu.Unlock()
}

func (c *Collector) clock() time.Time {
	c.mu.Lock()
	now := c.now
	c.mu.Unlock()
	return now()
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a valid no-op handle) on a nil collector.
func (c *Collector) Counter(name string) *Counter {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ctr, ok := c.counters[name]
	if !ok {
		ctr = &Counter{}
		c.counters[name] = ctr
	}
	return ctr
}

// Gauge returns the named gauge, creating it on first use.
func (c *Collector) Gauge(name string) *Gauge {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	g, ok := c.gauges[name]
	if !ok {
		g = &Gauge{}
		c.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (c *Collector) Histogram(name string) *Histogram {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.hists[name]
	if !ok {
		h = &Histogram{}
		c.hists[name] = h
	}
	return h
}

// sortedNames returns the keys of a map in lexicographic order.
func sortedNames[T any](m map[string]T) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Counter is a monotonically increasing event count. A nil *Counter is a
// no-op handle.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// AddSince adds the wall time elapsed since t0, in nanoseconds. It is the
// accumulating-stopwatch idiom for stages too fine-grained for spans.
func (c *Counter) AddSince(t0 time.Time) {
	if c == nil {
		return
	}
	c.v.Add(int64(time.Since(t0)))
}

// Value returns the current count (0 on a nil handle).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-writer-wins instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// SetMax raises the gauge to v if v is greater than the current value.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value (0 on a nil handle).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of power-of-two histogram buckets: bucket 0
// holds observations ≤ 0, bucket k holds (2^(k-1), 2^k].
const histBuckets = 65

// Histogram counts observations in power-of-two buckets. It tracks count,
// sum, min, and max exactly; the buckets give the shape of the
// distribution without per-value storage.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // valid when count > 0
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// bucketIndex maps an observation to its bucket: 0 for v ≤ 0; bucket
// k ≥ 1 covers (2^(k-2), 2^(k-1)], so the bucket's inclusive upper bound
// is 2^(k-1).
func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v-1)) + 1
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if h.count.Add(1) == 1 {
		// First observation seeds min/max; racing observers correct below.
		h.min.Store(v)
		h.max.Store(v)
	}
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bucketIndex(v)].Add(1)
}

// Count returns the number of observations (0 on a nil handle).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Quantile estimates the q-quantile (q in [0,1]) of the recorded
// distribution from the power-of-two buckets, interpolating linearly
// inside the selected bucket and clamping to the exact [min, max]. The
// estimate is exact for q=0 and q=1 and carries at most one-bucket
// (factor-of-two) error elsewhere — enough to tell a 2µs p99 from a 2ms
// one. Returns 0 on a nil handle or an empty histogram.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	return h.snapshot().Quantile(q)
}
