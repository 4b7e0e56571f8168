// Package obs is the simulator's observability layer: a zero-dependency
// metrics registry (counters, gauges, histograms with fixed bucket layouts)
// cheap enough to live inside the discrete-event hot loop.
//
// Two properties shape the design:
//
//   - Disabled must be free. Every constructor on a nil *Registry returns a
//     nil metric, and every operation on a nil metric is an inlinable
//     nil-check no-op. Instrumented code therefore never branches on a
//     "metrics enabled?" flag of its own: it unconditionally calls
//     m.Dispatched.Inc() and pays one predictable test-and-return when the
//     study runs without observability (the common case for exhibits, whose
//     CSVs must stay bit-identical and whose wall time is the benchmark).
//
//   - Enabled must not allocate per event. All observation paths are atomic
//     adds (CAS loops for float sums) on storage allocated once at
//     registration. Registration itself is get-or-create under a mutex, so
//     layers re-registering the same series (one cluster.Run per arrival
//     pattern, say) share storage instead of duplicating it.
//
// Metrics are identified by name plus an ordered set of constant labels,
// following the Prometheus data model; WriteProm renders the text
// exposition format (WriteMerged renders several registries as one, as the
// replica mesh's /metrics does) and Snapshot/WriteJSON a structured
// snapshot, so a run can be scraped, diffed, or cross-checked
// (cmd/exacheck uses the resilience time-split metrics as a correctness
// oracle against the execution traces).
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant name=value pair attached to a metric series.
type Label struct {
	Name, Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Kind classifies a metric family.
type Kind int

// The metric kinds of the registry.
const (
	// KindCounter is a monotonically increasing value (integer or float).
	KindCounter Kind = iota
	// KindGauge is a value that can move both ways (or track a maximum).
	KindGauge
	// KindHistogram is a fixed-bucket distribution with sum and count.
	KindHistogram
)

// String names the kind as the Prometheus TYPE line expects.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Fixed bucket layouts shared by the instrumented layers, so dashboards and
// the DESIGN.md documentation agree on one vocabulary.
var (
	// DepthBuckets covers queue and event-heap depths (powers of two).
	DepthBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
	// FractionBuckets covers ratios in [0, 1] such as node utilization.
	FractionBuckets = []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.0}
	// MinuteBuckets covers simulated durations from a minute to a year.
	MinuteBuckets = []float64{1, 10, 60, 240, 1440, 10080, 43200, 525600}
	// LatencyBuckets covers wall-clock seconds from sub-millisecond HTTP
	// handling to multi-minute experiment jobs (internal/serve).
	LatencyBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2, 10, 60, 300}
)

// metric is the interface shared by all series stored in a family.
type metric interface {
	labelSet() []Label
}

// family is one named group of series sharing help text, kind, and (for
// histograms) bucket bounds.
type family struct {
	name   string
	help   string
	kind   Kind
	bounds []float64
	bySig  map[string]metric
}

// Registry holds metric families. The zero value is not used directly;
// construct with NewRegistry. A nil *Registry is the disabled registry:
// every constructor returns nil and every observation is a no-op.
//
// Registration is mutex-guarded; observation is lock-free. A Registry is
// safe for concurrent use by the parallel study drivers.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family

	// memo caches arbitrary registration bundles (see Memo). It has its
	// own lock so a memoized build may itself register series or consult
	// other memo keys without deadlocking.
	memoMu sync.RWMutex
	memo   map[string]any
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}, memo: map[string]any{}}
}

// Memo returns the value cached under key, calling build to produce it on
// first use. Layers use it to register a whole metrics bundle exactly once
// per registry instead of re-walking every get-or-create lookup on each
// simulation run: the repeat path is one read-locked map hit.
//
// A nil registry returns nil without calling build, matching the
// disabled-bundle convention of the constructors. build runs outside the
// memo lock, so concurrent first calls may build twice; the first stored
// value wins, which is sound because bundles built from the same registry
// share all series storage anyway.
func (r *Registry) Memo(key string, build func() any) any {
	if r == nil {
		return nil
	}
	r.memoMu.RLock()
	v, ok := r.memo[key]
	r.memoMu.RUnlock()
	if ok {
		return v
	}
	built := build()
	r.memoMu.Lock()
	if v, ok = r.memo[key]; ok {
		built = v
	} else {
		r.memo[key] = built
	}
	r.memoMu.Unlock()
	return built
}

// Enabled reports whether the registry records anything.
func (r *Registry) Enabled() bool { return r != nil }

// signature serializes a sorted label set into a map key.
func signature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte(',')
	}
	return b.String()
}

// sortLabels returns a sorted copy of the label set.
func sortLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// lookup finds or creates the family and returns the series for the label
// set, creating it via make when absent. It panics when a name is reused
// with a different kind or bucket layout: that is always a wiring bug, and
// silently splitting the family would corrupt the exposition.
func (r *Registry) lookup(name, help string, kind Kind, bounds []float64, labels []Label, make func([]Label) metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, bounds: bounds, bySig: map[string]metric{}}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %v, was %v", name, kind, f.kind))
	}
	sorted := sortLabels(labels)
	sig := signature(sorted)
	if m, ok := f.bySig[sig]; ok {
		return m
	}
	m := make(sorted)
	f.bySig[sig] = m
	return m
}

// Counter returns the integer counter series for (name, labels), creating
// it on first use. A nil registry returns a nil counter whose operations
// are no-ops.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, KindCounter, nil, labels, func(l []Label) metric {
		return &Counter{lbls: l}
	}).(*Counter)
}

// FloatCounter returns the float counter series for (name, labels). It
// shares a family namespace with Counter: pick one flavor per name.
func (r *Registry) FloatCounter(name, help string, labels ...Label) *FloatCounter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, KindCounter, nil, labels, func(l []Label) metric {
		return &FloatCounter{lbls: l}
	}).(*FloatCounter)
}

// Gauge returns the gauge series for (name, labels).
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, KindGauge, nil, labels, func(l []Label) metric {
		return &Gauge{lbls: l}
	}).(*Gauge)
}

// Histogram returns the histogram series for (name, labels) with the given
// bucket upper bounds (ascending; a +Inf bucket is implicit). The bounds of
// the first registration win for the whole family.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, KindHistogram, bounds, labels, func(l []Label) metric {
		h := &Histogram{lbls: l, bounds: append([]float64(nil), bounds...)}
		h.counts = make([]atomic.Uint64, len(bounds)+1)
		return h
	}).(*Histogram)
}

// Counter is a monotonically increasing integer. The nil counter is the
// disabled counter: Inc and Add do nothing, Value reports zero.
type Counter struct {
	lbls []Label
	v    atomic.Uint64
}

func (c *Counter) labelSet() []Label { return c.lbls }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reports the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// FloatCounter is a monotonically increasing float64, accumulated with a
// compare-and-swap loop so concurrent adds never lose updates. The nil
// FloatCounter is disabled.
type FloatCounter struct {
	lbls []Label
	bits atomic.Uint64
}

func (c *FloatCounter) labelSet() []Label { return c.lbls }

// Add accumulates v. Negative additions panic: the series is a counter, and
// a negative delta always indicates an accounting bug upstream.
func (c *FloatCounter) Add(v float64) {
	if c == nil || v == 0 {
		return
	}
	if v < 0 {
		panic(fmt.Sprintf("obs: negative add %v to a float counter", v))
	}
	for {
		old := c.bits.Load()
		if c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Value reports the accumulated sum.
func (c *FloatCounter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is an instantaneous integer value. The nil gauge is disabled.
type Gauge struct {
	lbls []Label
	v    atomic.Int64
}

func (g *Gauge) labelSet() []Label { return g.lbls }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// SetMax raises the gauge to v if v is larger, making the gauge a
// high-water mark (the DES layer uses this for peak heap depth).
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		old := g.v.Load()
		if v <= old || g.v.CompareAndSwap(old, v) {
			return
		}
	}
}

// Value reports the current gauge reading.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution: counts per upper bound (plus an
// implicit +Inf bucket), a total count, and a sum. The nil histogram is
// disabled. Observe is a linear scan over the (short, fixed) bound slice
// and two atomic adds — no allocation.
type Histogram struct {
	lbls    []Label
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1; last is +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64
}

func (h *Histogram) labelSet() []Label { return h.lbls }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// NumBuckets reports the number of buckets including the implicit +Inf
// bucket, i.e. len(bounds)+1. It is the required length of the counts
// slice passed to AddBuckets. The nil histogram reports zero.
func (h *Histogram) NumBuckets() int {
	if h == nil {
		return 0
	}
	return len(h.counts)
}

// FindBucket returns the bucket index Observe(v) would increment, in
// [0, NumBuckets()). It lets hot loops tally observations into a local
// array and merge once via AddBuckets instead of paying per-event atomics.
// The nil histogram returns 0.
func (h *Histogram) FindBucket(v float64) int {
	if h == nil {
		return 0
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	return i
}

// AddBuckets merges a locally tallied batch into the histogram: counts[i]
// observations in bucket i (indexed as FindBucket) and sum as their total.
// One AddBuckets equals the per-event Observe sequence it replaces — same
// bucket counts, total count, and sum — at the cost of len(counts) atomic
// adds and a single CAS instead of three atomics per event. It panics when
// len(counts) != NumBuckets(); the nil histogram ignores the batch.
func (h *Histogram) AddBuckets(counts []uint64, sum float64) {
	if h == nil {
		return
	}
	if len(counts) != len(h.counts) {
		panic(fmt.Sprintf("obs: AddBuckets with %d buckets, histogram has %d", len(counts), len(h.counts)))
	}
	var total uint64
	for i, n := range counts {
		if n != 0 {
			h.counts[i].Add(n)
			total += n
		}
	}
	if total == 0 && sum == 0 {
		return
	}
	h.count.Add(total)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+sum)) {
			return
		}
	}
}

// Count reports how many observations the histogram holds.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Buckets reports the cumulative count at each bound (plus +Inf last),
// matching the Prometheus bucket semantics.
func (h *Histogram) Buckets() (bounds []float64, cumulative []uint64) {
	if h == nil {
		return nil, nil
	}
	bounds = append([]float64(nil), h.bounds...)
	cumulative = make([]uint64, len(h.counts))
	var running uint64
	for i := range h.counts {
		running += h.counts[i].Load()
		cumulative[i] = running
	}
	return bounds, cumulative
}
