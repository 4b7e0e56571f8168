package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryIsFullyDisabled(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Error("nil registry reports enabled")
	}
	c := r.Counter("c", "")
	fc := r.FloatCounter("f", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", DepthBuckets)
	// None of these may panic or record anything.
	c.Inc()
	c.Add(7)
	fc.Add(1.5)
	g.Set(3)
	g.Add(-1)
	g.SetMax(99)
	h.Observe(12)
	if c.Value() != 0 || fc.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil metrics recorded values")
	}
	if bounds, cum := h.Buckets(); bounds != nil || cum != nil {
		t.Error("nil histogram returned buckets")
	}
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil WriteProm = (%q, %v)", buf.String(), err)
	}
	if s := r.Snapshot(); len(s) != 0 {
		t.Errorf("nil Snapshot = %v", s)
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events_total", "help", L("kind", "a"))
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	fc := r.FloatCounter("time_minutes_total", "")
	fc.Add(1.25)
	fc.Add(0.75)
	if fc.Value() != 2 {
		t.Errorf("float counter = %v, want 2", fc.Value())
	}
	g := r.Gauge("depth", "")
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Errorf("gauge = %d, want 7", g.Value())
	}
	g.SetMax(5) // lower: no effect
	if g.Value() != 7 {
		t.Errorf("SetMax lowered the gauge to %d", g.Value())
	}
	g.SetMax(20)
	if g.Value() != 20 {
		t.Errorf("SetMax = %d, want 20", g.Value())
	}
}

func TestGetOrCreateSharesStorage(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("same", "h", L("x", "1"))
	b := r.Counter("same", "h", L("x", "1"))
	if a != b {
		t.Error("same (name, labels) produced distinct counters")
	}
	other := r.Counter("same", "h", L("x", "2"))
	if a == other {
		t.Error("distinct labels shared a counter")
	}
	// Label order must not matter.
	p := r.Gauge("g", "", L("a", "1"), L("b", "2"))
	q := r.Gauge("g", "", L("b", "2"), L("a", "1"))
	if p != q {
		t.Error("label order split the series")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m", "")
}

func TestFloatCounterNegativePanics(t *testing.T) {
	r := NewRegistry()
	fc := r.FloatCounter("m", "")
	defer func() {
		if recover() == nil {
			t.Error("negative float add did not panic")
		}
	}()
	fc.Add(-1)
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("depth", "", []float64{1, 4, 16})
	for _, v := range []float64{0, 1, 2, 4, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Errorf("count = %d, want 6", h.Count())
	}
	if h.Sum() != 112 {
		t.Errorf("sum = %v, want 112", h.Sum())
	}
	bounds, cum := h.Buckets()
	if len(bounds) != 3 || len(cum) != 4 {
		t.Fatalf("buckets = (%v, %v)", bounds, cum)
	}
	// <=1: {0,1}; <=4: +{2,4}; <=16: +{5}; +Inf: +{100}.
	want := []uint64{2, 4, 5, 6}
	for i, c := range cum {
		if c != want[i] {
			t.Errorf("cumulative[%d] = %d, want %d", i, c, want[i])
		}
	}
}

func TestConcurrentObservation(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	fc := r.FloatCounter("f", "")
	h := r.Histogram("h", "", []float64{10})
	g := r.Gauge("g", "")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				fc.Add(0.5)
				h.Observe(float64(i % 20))
				g.SetMax(int64(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if fc.Value() != workers*per/2 {
		t.Errorf("float counter = %v, want %d", fc.Value(), workers*per/2)
	}
	if h.Count() != workers*per {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	if g.Value() != workers*per-1 {
		t.Errorf("max gauge = %d, want %d", g.Value(), workers*per-1)
	}
}

func TestWriteProm(t *testing.T) {
	r := NewRegistry()
	r.Counter("exa_events_total", "events fired", L("layer", "des")).Add(3)
	r.FloatCounter("exa_time_minutes_total", "time split", L("phase", "checkpoint")).Add(2.5)
	r.Gauge("exa_depth_peak", "peak depth").Set(17)
	h := r.Histogram("exa_util", "utilization", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(0.75)

	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP exa_events_total events fired",
		"# TYPE exa_events_total counter",
		`exa_events_total{layer="des"} 3`,
		`exa_time_minutes_total{phase="checkpoint"} 2.5`,
		"# TYPE exa_depth_peak gauge",
		"exa_depth_peak 17",
		"# TYPE exa_util histogram",
		`exa_util_bucket{le="0.5"} 1`,
		`exa_util_bucket{le="1"} 2`,
		`exa_util_bucket{le="+Inf"} 2`,
		"exa_util_sum 1",
		"exa_util_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Deterministic: a second render must be byte-identical.
	var again bytes.Buffer
	if err := r.WriteProm(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != out {
		t.Error("exposition is not deterministic across renders")
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "", L("k", "v")).Add(2)
	h := r.Histogram("h", "", []float64{1})
	h.Observe(0.5)
	h.Observe(3)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Metrics []MetricSnapshot `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(decoded.Metrics) != 2 {
		t.Fatalf("snapshot has %d metrics, want 2", len(decoded.Metrics))
	}
	c := decoded.Metrics[0]
	if c.Name != "c_total" || c.Value != 2 || c.Labels["k"] != "v" {
		t.Errorf("counter snapshot = %+v", c)
	}
	hs := decoded.Metrics[1]
	if hs.Count != 2 || hs.Sum != 3.5 || len(hs.Buckets) != 2 {
		t.Errorf("histogram snapshot = %+v", hs)
	}
	if hs.Buckets[1].UpperBound != "+Inf" || hs.Buckets[1].Count != 2 {
		t.Errorf("+Inf bucket = %+v", hs.Buckets[1])
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "", L("v", "a\"b\\c\nd")).Inc()
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `c{v="a\"b\\c\nd"} 1`) {
		t.Errorf("escaping wrong: %s", buf.String())
	}
}

// mergeFixture registers one series of each kind, the histogram carrying a
// label value that needs every escape.
func mergeFixture(events uint64) *Registry {
	r := NewRegistry()
	r.Counter("exa_events_total", "events fired", L("layer", "des")).Add(3)
	r.Counter("exa_events_total", "events fired", L("layer", "cluster")).Add(events)
	r.FloatCounter("exa_time_minutes_total", "time split", L("phase", "checkpoint")).Add(2.5)
	r.Gauge("exa_depth_peak", "").Set(17)
	h := r.Histogram("exa_util", "utilization", []float64{0.5, 1}, L("q", "a\"b\\c\nd"))
	h.Observe(0.25)
	h.Observe(0.75)
	return r
}

// TestWriteMerged: one source renders exactly the bytes WriteProm rendered
// before the merged writer existed; several sources render each family
// once, with its samples contiguous and each source's labels first.
func TestWriteMerged(t *testing.T) {
	const single = `# TYPE exa_depth_peak gauge
exa_depth_peak 17
# HELP exa_events_total events fired
# TYPE exa_events_total counter
exa_events_total{layer="cluster"} 1234567
exa_events_total{layer="des"} 3
# HELP exa_time_minutes_total time split
# TYPE exa_time_minutes_total counter
exa_time_minutes_total{phase="checkpoint"} 2.5
# HELP exa_util utilization
# TYPE exa_util histogram
exa_util_bucket{q="a\"b\\c\nd",le="0.5"} 1
exa_util_bucket{q="a\"b\\c\nd",le="1"} 2
exa_util_bucket{q="a\"b\\c\nd",le="+Inf"} 2
exa_util_sum{q="a\"b\\c\nd"} 1
exa_util_count{q="a\"b\\c\nd"} 2
`
	var buf bytes.Buffer
	if err := mergeFixture(1234567).WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != single {
		t.Errorf("one-source exposition changed:\n%s\nwant:\n%s", buf.String(), single)
	}

	top := NewRegistry()
	top.Counter("exa_events_total", "events fired", L("layer", "mesh")).Inc()
	buf.Reset()
	err := WriteMerged(&buf,
		Source{Reg: top},
		Source{Reg: mergeFixture(1), Labels: []Label{L("replica", "0")}},
		Source{Reg: nil, Labels: []Label{L("replica", "1")}},
		Source{Reg: mergeFixture(2), Labels: []Label{L("replica", `2"\`)}},
	)
	if err != nil {
		t.Fatal(err)
	}
	want := `# TYPE exa_depth_peak gauge
exa_depth_peak{replica="0"} 17
exa_depth_peak{replica="2\"\\"} 17
# HELP exa_events_total events fired
# TYPE exa_events_total counter
exa_events_total{layer="mesh"} 1
exa_events_total{replica="0",layer="cluster"} 1
exa_events_total{replica="0",layer="des"} 3
exa_events_total{replica="2\"\\",layer="cluster"} 2
exa_events_total{replica="2\"\\",layer="des"} 3
# HELP exa_time_minutes_total time split
# TYPE exa_time_minutes_total counter
exa_time_minutes_total{replica="0",phase="checkpoint"} 2.5
exa_time_minutes_total{replica="2\"\\",phase="checkpoint"} 2.5
# HELP exa_util utilization
# TYPE exa_util histogram
exa_util_bucket{replica="0",q="a\"b\\c\nd",le="0.5"} 1
exa_util_bucket{replica="0",q="a\"b\\c\nd",le="1"} 2
exa_util_bucket{replica="0",q="a\"b\\c\nd",le="+Inf"} 2
exa_util_sum{replica="0",q="a\"b\\c\nd"} 1
exa_util_count{replica="0",q="a\"b\\c\nd"} 2
exa_util_bucket{replica="2\"\\",q="a\"b\\c\nd",le="0.5"} 1
exa_util_bucket{replica="2\"\\",q="a\"b\\c\nd",le="1"} 2
exa_util_bucket{replica="2\"\\",q="a\"b\\c\nd",le="+Inf"} 2
exa_util_sum{replica="2\"\\",q="a\"b\\c\nd"} 1
exa_util_count{replica="2\"\\",q="a\"b\\c\nd"} 2
`
	if buf.String() != want {
		t.Errorf("merged exposition:\n%s\nwant:\n%s", buf.String(), want)
	}

	clash := NewRegistry()
	clash.Gauge("exa_events_total", "").Set(1)
	buf.Reset()
	if err := WriteMerged(&buf, Source{Reg: mergeFixture(1)}, Source{Reg: clash}); err == nil || buf.Len() != 0 {
		t.Errorf("kind clash: err %v after %d bytes, want an error before any output", err, buf.Len())
	}
}

// TestWritePromConcurrentRegistration: a scrape may race the first use of
// a new label set (serve registers one series per route and status code
// lazily); under -race this pins that the scrape copies each family's
// series under the registry lock.
func TestWritePromConcurrentRegistration(t *testing.T) {
	r := NewRegistry()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			r.Counter("exa_requests_total", "", L("code", strconv.Itoa(i))).Inc()
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
			if err := r.WriteProm(io.Discard); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func BenchmarkCounterIncDisabled(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncEnabled(b *testing.B) {
	c := NewRegistry().Counter("c", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserveEnabled(b *testing.B) {
	h := NewRegistry().Histogram("h", "", DepthBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 600))
	}
}
