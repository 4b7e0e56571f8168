package workload

import (
	"bytes"
	"reflect"
	"testing"

	"exaresil/internal/units"
)

// FuzzReadPattern feeds arbitrary bytes to the pattern reader: malformed
// input must error (never panic), and any pattern the reader accepts must
// satisfy the documented invariants and survive a Write -> Read round trip
// unchanged (JSON renders float64 in a shortest form that parses back to
// the same value, so the comparison is exact).
func FuzzReadPattern(f *testing.F) {
	var buf bytes.Buffer
	seed := Pattern{
		InitialFill: 1,
		Apps: []App{
			{ID: 0, Class: C64, TimeSteps: 1440, Nodes: 1200},
			{ID: 1, Class: A32, TimeSteps: 360, Nodes: 12,
				Arrival: 90 * units.Minute, Deadline: 400 * units.Minute},
		},
	}
	if err := WritePattern(&buf, seed); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"version":1,"initial_fill":0,"apps":[]}`))
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte(`{"version":1,"initial_fill":7,"apps":[]}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadPattern(bytes.NewReader(data))
		if err != nil {
			return
		}
		if p.InitialFill < 0 || p.InitialFill > len(p.Apps) {
			t.Fatalf("accepted initial fill %d with %d apps", p.InitialFill, len(p.Apps))
		}
		var last units.Duration
		ids := map[int]bool{}
		for i, a := range p.Apps {
			if err := a.Validate(); err != nil {
				t.Fatalf("accepted invalid app %d: %v", i, err)
			}
			if ids[a.ID] {
				t.Fatalf("accepted app %d repeating ID %d", i, a.ID)
			}
			ids[a.ID] = true
			if a.Arrival < last {
				t.Fatalf("accepted app %d arriving at %v before its predecessor's %v", i, a.Arrival, last)
			}
			last = a.Arrival
		}
		var out bytes.Buffer
		if err := WritePattern(&out, p); err != nil {
			t.Fatalf("re-serializing an accepted pattern: %v", err)
		}
		again, err := ReadPattern(&out)
		if err != nil {
			t.Fatalf("re-reading a written pattern: %v", err)
		}
		if !reflect.DeepEqual(p, again) {
			t.Fatalf("round trip changed the pattern:\n got %+v\nwant %+v", again, p)
		}
	})
}
