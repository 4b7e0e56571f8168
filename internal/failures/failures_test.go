package failures

import (
	"math"
	"testing"
	"testing/quick"

	"exaresil/internal/rng"
	"exaresil/internal/units"
)

func TestNewModelValidation(t *testing.T) {
	if _, err := NewModel(0, DefaultSeverityPMF()); err == nil {
		t.Error("zero MTBF accepted")
	}
	if _, err := NewModel(-units.Year, DefaultSeverityPMF()); err == nil {
		t.Error("negative MTBF accepted")
	}
	if _, err := NewModel(units.Year, SeverityPMF{0, 0, 0}); err == nil {
		t.Error("zero PMF accepted")
	}
	if _, err := NewModel(units.Year, SeverityPMF{1, -1, 0}); err == nil {
		t.Error("negative PMF weight accepted")
	}
	if _, err := NewModel(10*units.Year, DefaultSeverityPMF()); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
}

func TestRateMatchesEq2(t *testing.T) {
	m := MustModel(10*units.Year, DefaultSeverityPMF())
	// lambda_a = N_a / M_n.
	got := m.Rate(30000).PerMinute()
	want := 30000.0 / (10 * 525600)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("rate = %v, want %v", got, want)
	}
	if m.Rate(0) != 0 || m.Rate(-1) != 0 {
		t.Error("empty population should have zero rate")
	}
}

// TestSeverityRate: SeverityRates splits the population's failure rate
// across the severity levels in proportion to the PMF, normalized so the
// levels sum to the whole rate even for an unnormalized PMF.
func TestSeverityRate(t *testing.T) {
	for _, pmf := range []SeverityPMF{{0.65, 0.25, 0.10}, {6.5, 2.5, 1.0}} {
		m := MustModel(10*units.Year, pmf)
		full := float64(m.Rate(1000))
		rates := m.SeverityRates(1000)
		sum := 0.0
		for i, frac := range []float64{0.65, 0.25, 0.10} {
			got := float64(rates[i])
			if math.Abs(got-full*frac) > 1e-15 {
				t.Errorf("pmf %v: severity %d rate %v, want %v", pmf, i+1, got, full*frac)
			}
			sum += got
		}
		if math.Abs(sum-full) > 1e-15 {
			t.Errorf("pmf %v: severity rates sum to %v, want the whole rate %v", pmf, sum, full)
		}
	}
}

func TestProcessInterarrivalMean(t *testing.T) {
	m := MustModel(10*units.Year, DefaultSeverityPMF())
	const nodes = 120000
	p := m.Process(nodes, rng.New(1))
	// Expect ~43.8 min between failures at full machine (see paper's
	// "failures up to several times an hour" at exascale).
	const n = 20000
	var last units.Duration
	for i := 0; i < n; i++ {
		f, ok := p.Next()
		if !ok {
			t.Fatal("process refused to fire")
		}
		if f.Time <= last {
			t.Fatalf("failure times not strictly increasing: %v after %v", f.Time, last)
		}
		last = f.Time
	}
	mean := last.Minutes() / n
	want := (10.0 * 525600) / nodes
	if math.Abs(mean-want) > 0.05*want {
		t.Errorf("mean interarrival %v min, want ~%v", mean, want)
	}
}

func TestProcessNodesUniform(t *testing.T) {
	m := MustModel(units.Year, DefaultSeverityPMF())
	const nodes = 10
	p := m.Process(nodes, rng.New(2))
	counts := make([]int, nodes)
	const n = 50000
	for i := 0; i < n; i++ {
		f, _ := p.Next()
		if f.Node < 0 || f.Node >= nodes {
			t.Fatalf("node %d out of range", f.Node)
		}
		counts[f.Node]++
	}
	want := float64(n) / nodes
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("node %d hit %d times, want ~%v", i, c, want)
		}
	}
}

func TestProcessSeverityFrequencies(t *testing.T) {
	pmf := SeverityPMF{0.65, 0.25, 0.10}
	m := MustModel(units.Year, pmf)
	p := m.Process(100, rng.New(3))
	counts := map[Severity]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		f, _ := p.Next()
		counts[f.Severity]++
	}
	for i, w := range pmf {
		sev := Severity(i + 1)
		got := float64(counts[sev]) / n
		if math.Abs(got-w) > 0.01 {
			t.Errorf("severity %v frequency %v, want ~%v", sev, got, w)
		}
	}
}

func TestEmptyProcessNeverFires(t *testing.T) {
	m := MustModel(units.Year, DefaultSeverityPMF())
	p := m.Process(0, rng.New(4))
	if _, ok := p.Next(); ok {
		t.Error("empty process fired")
	}
	if p.Rate() != 0 {
		t.Error("empty process has nonzero rate")
	}
}

func TestSkip(t *testing.T) {
	m := MustModel(units.Year, DefaultSeverityPMF())
	p := m.Process(1000, rng.New(5))
	p.Skip(500)
	f, _ := p.Next()
	if f.Time <= 500 {
		t.Errorf("failure at %v despite skip to 500", f.Time)
	}
	// Skipping backwards is a no-op.
	p.Skip(0)
	g, _ := p.Next()
	if g.Time <= f.Time {
		t.Error("backwards skip rewound the process")
	}
}

func TestSeverityStrings(t *testing.T) {
	for sev, want := range map[Severity]string{
		SeverityTransient:    "transient",
		SeverityNodeLoss:     "node-loss",
		SeverityCatastrophic: "catastrophic",
	} {
		if sev.String() != want {
			t.Errorf("Severity(%d).String() = %q, want %q", sev, sev.String(), want)
		}
	}
	if Severity(9).String() != "Severity(9)" {
		t.Error("unknown severity string")
	}
}

func TestDeterminism(t *testing.T) {
	m := MustModel(10*units.Year, DefaultSeverityPMF())
	a := m.Process(5000, rng.New(42))
	b := m.Process(5000, rng.New(42))
	for i := 0; i < 1000; i++ {
		fa, _ := a.Next()
		fb, _ := b.Next()
		if fa != fb {
			t.Fatalf("processes diverged at %d: %v vs %v", i, fa, fb)
		}
	}
}

// TestThinningConsistency verifies the thinning identity the cluster
// simulator relies on: a population of n nodes observed through a model
// with MTBF M has the same rate as a 1-node population with MTBF M/n.
func TestThinningConsistency(t *testing.T) {
	prop := func(nRaw uint16, yearsRaw uint8) bool {
		n := int(nRaw%10000) + 1
		years := units.Duration(yearsRaw%20+1) * units.Year
		whole := MustModel(years, DefaultSeverityPMF()).Rate(n)
		scaled := MustModel(years/units.Duration(n), DefaultSeverityPMF()).Rate(1)
		return math.Abs(float64(whole)-float64(scaled)) < 1e-12*math.Max(1, float64(whole))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkProcessNext(b *testing.B) {
	m := MustModel(10*units.Year, DefaultSeverityPMF())
	p := m.Process(120000, rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Next()
	}
}

func TestWeibullModelMeanPreserved(t *testing.T) {
	m, err := NewWeibullModel(10*units.Year, DefaultSeverityPMF(), 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if m.Shape() != 0.7 {
		t.Errorf("shape %v", m.Shape())
	}
	p := m.Process(120000, rng.New(8))
	const n = 30000
	var last units.Duration
	for i := 0; i < n; i++ {
		f, ok := p.Next()
		if !ok {
			t.Fatal("process refused to fire")
		}
		if f.Time <= last {
			t.Fatal("times not increasing")
		}
		last = f.Time
	}
	mean := last.Minutes() / n
	want := (10.0 * 525600) / 120000
	if math.Abs(mean-want) > 0.1*want {
		t.Errorf("Weibull process mean interarrival %v, want ~%v", mean, want)
	}
}

func TestWeibullModelBurstier(t *testing.T) {
	// Shape < 1 should produce more variable gaps than exponential:
	// compare coefficient of variation.
	cv := func(shape float64) float64 {
		m, err := NewWeibullModel(units.Year, DefaultSeverityPMF(), shape)
		if err != nil {
			t.Fatal(err)
		}
		p := m.Process(1000, rng.New(9))
		var gaps []float64
		var last units.Duration
		for i := 0; i < 20000; i++ {
			f, _ := p.Next()
			gaps = append(gaps, (f.Time - last).Minutes())
			last = f.Time
		}
		var mean, m2 float64
		for _, g := range gaps {
			mean += g
		}
		mean /= float64(len(gaps))
		for _, g := range gaps {
			m2 += (g - mean) * (g - mean)
		}
		return math.Sqrt(m2/float64(len(gaps))) / mean
	}
	if burst, exp := cv(0.6), cv(1.0); burst <= exp {
		t.Errorf("Weibull(0.6) CV %v should exceed exponential CV %v", burst, exp)
	}
}

func TestWeibullModelValidation(t *testing.T) {
	if _, err := NewWeibullModel(units.Year, DefaultSeverityPMF(), 0); err == nil {
		t.Error("zero shape accepted")
	}
	if _, err := NewWeibullModel(units.Year, DefaultSeverityPMF(), -2); err == nil {
		t.Error("negative shape accepted")
	}
}
