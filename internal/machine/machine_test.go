package machine

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"exaresil/internal/units"
)

func TestExascaleMatchesPaper(t *testing.T) {
	c := Exascale()
	if err := c.Validate(); err != nil {
		t.Fatalf("Exascale config invalid: %v", err)
	}
	if c.Nodes != 120000 {
		t.Errorf("nodes = %d, want 120000", c.Nodes)
	}
	if c.Node.Cores != 1028 {
		t.Errorf("cores per node = %d, want 1028", c.Node.Cores)
	}
	// "A system composed of 120,000 of these high performing nodes would
	// perform at an exascale level": 120000 * 12 TFLOPS = 1.44 EFLOPS.
	if got := c.PeakPFLOPS(); math.Abs(got-1440) > 1 {
		t.Errorf("peak = %v PFLOPS, want ~1440", got)
	}
	// 123 million CPU cores at full size per Section V.
	if got := c.TotalCores(); got != 120000*1028 {
		t.Errorf("total cores = %d", got)
	}
	if got := c.TotalCores(); float64(got) < 123e6*0.99 || float64(got) > 124e6 {
		t.Errorf("total cores %d outside paper's ~123 million", got)
	}
	if c.Node.Memory != 128*units.Gigabyte {
		t.Errorf("node memory = %v, want 128GB", c.Node.Memory)
	}
	if c.Node.MemoryBandwidth != 320*units.GBPerSecond {
		t.Errorf("memory bandwidth = %v, want 320 GB/s", c.Node.MemoryBandwidth)
	}
	if c.Network.Bandwidth != 600*units.GBPerSecond {
		t.Errorf("network bandwidth = %v, want 600 GB/s", c.Network.Bandwidth)
	}
	if c.Network.SwitchConnections != 12 {
		t.Errorf("switch connections = %d, want 12", c.Network.SwitchConnections)
	}
	if math.Abs(c.Network.Latency.Seconds()-0.5e-6) > 1e-12 {
		t.Errorf("latency = %v s, want 0.5us", c.Network.Latency.Seconds())
	}
	if c.MTBF != 10*units.Year {
		t.Errorf("MTBF = %v, want 10 years", c.MTBF)
	}
}

func TestSunwayValid(t *testing.T) {
	c := SunwayTaihuLight()
	if err := c.Validate(); err != nil {
		t.Fatalf("Sunway config invalid: %v", err)
	}
	// ~125 PFLOPS peak for the real machine.
	if got := c.PeakPFLOPS(); got < 100 || got > 150 {
		t.Errorf("Sunway peak %v PFLOPS, want ~125", got)
	}
}

func TestWithMTBF(t *testing.T) {
	base := Exascale()
	low := base.WithMTBF(units.Duration(2.5) * units.Year)
	if low.MTBF != units.Duration(2.5)*units.Year {
		t.Errorf("MTBF = %v", low.MTBF)
	}
	if base.MTBF != 10*units.Year {
		t.Error("WithMTBF mutated the receiver")
	}
	if low.Name == base.Name {
		t.Error("WithMTBF should rename the config")
	}
}

func TestValidateCatchesEachField(t *testing.T) {
	mutations := map[string]func(*Config){
		"nodes":       func(c *Config) { c.Nodes = 0 },
		"cores":       func(c *Config) { c.Node.Cores = -1 },
		"tflops":      func(c *Config) { c.Node.TFLOPS = 0 },
		"memory":      func(c *Config) { c.Node.Memory = 0 },
		"membw":       func(c *Config) { c.Node.MemoryBandwidth = 0 },
		"latency":     func(c *Config) { c.Network.Latency = -1 },
		"bandwidth":   func(c *Config) { c.Network.Bandwidth = 0 },
		"connections": func(c *Config) { c.Network.SwitchConnections = 0 },
		"mtbf":        func(c *Config) { c.MTBF = 0 },
	}
	for name, mutate := range mutations {
		c := Exascale()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: invalid config passed validation", name)
		}
	}
}

func TestSystemFailureRate(t *testing.T) {
	c := Exascale()
	// Full system at ten-year MTBF: lambda_s = 120000/(10*525600 min)
	// ~ 0.0228 failures per minute, about one failure every 44 minutes.
	got := c.SystemFailureRate(c.Nodes)
	want := 120000.0 / (10 * 525600)
	if math.Abs(got.PerMinute()-want) > 1e-9 {
		t.Errorf("system failure rate %v, want %v", got.PerMinute(), want)
	}
	mean := got.MeanInterval()
	if mean.Minutes() < 40 || mean.Minutes() > 50 {
		t.Errorf("mean failure interval %v min, want ~44", mean.Minutes())
	}
	if c.SystemFailureRate(0) != 0 {
		t.Error("idle machine should have zero failure rate")
	}
	if c.SystemFailureRate(-5) != 0 {
		t.Error("negative active count should clamp to zero rate")
	}
	// Rate scales linearly with active node count.
	half := c.SystemFailureRate(c.Nodes / 2)
	if math.Abs(half.PerMinute()*2-got.PerMinute()) > 1e-12 {
		t.Error("failure rate is not linear in active nodes")
	}
}

func TestNodeFailureRate(t *testing.T) {
	c := Exascale()
	if got := c.NodeFailureRate().MeanInterval(); math.Abs(got.Years()-10) > 1e-9 {
		t.Errorf("node MTBF round trip: %v years", got.Years())
	}
}

func TestNodesForFraction(t *testing.T) {
	c := Exascale()
	cases := []struct {
		frac float64
		want int
	}{
		{1.0, 120000},
		{0.5, 60000},
		{0.25, 30000},
		{0.01, 1200},
		{0.0, 0},
		{-1, 0},
		{1e-9, 1},     // rounds up to at least one node
		{2.0, 120000}, // clamps to machine size
	}
	for _, tc := range cases {
		if got := c.NodesForFraction(tc.frac); got != tc.want {
			t.Errorf("NodesForFraction(%v) = %d, want %d", tc.frac, got, tc.want)
		}
	}
}

func TestTotalMemory(t *testing.T) {
	c := Exascale()
	want := units.DataSize(120000 * 128)
	if got := c.TotalMemory(); got != want {
		t.Errorf("total memory %v, want %v", got, want)
	}
}

func TestStringMentionsName(t *testing.T) {
	c := Exascale()
	if s := c.String(); len(s) == 0 || s[:len(c.Name)] != c.Name {
		t.Errorf("String() = %q does not start with config name", s)
	}
}

// TestConfigEqualCoversEveryField zeroes each field of a configuration
// whose every field is set: Equal must tell each such copy from the
// original, so a field added to Config but not to Equal fails here.
func TestConfigEqualCoversEveryField(t *testing.T) {
	a := Exascale()
	a.Classes = []NodeClass{{Name: "fast", Count: a.Nodes, Speed: 1.25, MTBF: units.Year}}
	same := a
	same.Classes = slices.Clone(a.Classes)
	if !a.Equal(same) {
		t.Fatal("a configuration differs from its copy")
	}
	v := reflect.ValueOf(a)
	for i := range v.NumField() {
		name := v.Type().Field(i).Name
		if v.Field(i).IsZero() {
			t.Fatalf("field %s is zero in the fixture: set it", name)
		}
		b := a
		reflect.ValueOf(&b).Elem().Field(i).SetZero()
		if a.Equal(b) {
			t.Errorf("Equal ignores field %s", name)
		}
	}
}
