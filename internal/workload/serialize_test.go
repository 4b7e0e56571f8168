package workload

import (
	"strings"
	"testing"

	"exaresil/internal/machine"
	"exaresil/internal/rng"
)

func TestPatternRoundTrip(t *testing.T) {
	cfg := machine.Exascale()
	orig := PatternSpec{Arrivals: 25, FillSystem: true}.Generate(cfg, rng.New(11))

	var b strings.Builder
	if err := WritePattern(&b, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPattern(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.InitialFill != orig.InitialFill {
		t.Errorf("initial fill %d, want %d", got.InitialFill, orig.InitialFill)
	}
	if len(got.Apps) != len(orig.Apps) {
		t.Fatalf("round trip lost apps: %d vs %d", len(got.Apps), len(orig.Apps))
	}
	for i := range got.Apps {
		if got.Apps[i] != orig.Apps[i] {
			t.Fatalf("app %d differs:\n  %+v\n  %+v", i, got.Apps[i], orig.Apps[i])
		}
	}
}

func TestPatternRoundTripCustomClass(t *testing.T) {
	orig := Pattern{Apps: []App{{
		ID:        0,
		Class:     Class{Name: "X48", CommFraction: 0.33, MemoryPerNode: 48},
		TimeSteps: 100,
		Nodes:     7,
		Arrival:   5,
		Deadline:  300,
	}}}
	var b strings.Builder
	if err := WritePattern(&b, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPattern(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Apps[0] != orig.Apps[0] {
		t.Errorf("custom class did not round-trip: %+v", got.Apps[0])
	}
}

func TestReadPatternRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":      "hello",
		"wrong version": `{"version": 99, "apps": []}`,
		"bad fill":      `{"version": 1, "initial_fill": 5, "apps": []}`,
		"invalid app": `{"version": 1, "apps": [
			{"id": 0, "class": {"name": "A32", "comm_fraction": 0, "memory_gb_per_node": 32},
			 "time_steps": 0, "nodes": 1, "arrival_min": 0}]}`,
		"unsorted arrivals": `{"version": 1, "apps": [
			{"id": 0, "class": {"name": "A32", "comm_fraction": 0, "memory_gb_per_node": 32},
			 "time_steps": 10, "nodes": 1, "arrival_min": 100},
			{"id": 1, "class": {"name": "A32", "comm_fraction": 0, "memory_gb_per_node": 32},
			 "time_steps": 10, "nodes": 1, "arrival_min": 50}]}`,
		"unknown field": `{"version": 1, "apps": [], "bogus": true}`,
	}
	for name, payload := range cases {
		if _, err := ReadPattern(strings.NewReader(payload)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestReadPatternRejectsRepeatedIDs: an application ID identifies one
// application of its pattern, so a file that repeats one is refused with
// an error naming it.
func TestReadPatternRejectsRepeatedIDs(t *testing.T) {
	orig := PatternSpec{Arrivals: 5}.Generate(machine.Exascale(), rng.New(3))
	orig.Apps[len(orig.Apps)-2].ID, orig.Apps[len(orig.Apps)-1].ID = 27, 27
	var b strings.Builder
	if err := WritePattern(&b, orig); err != nil {
		t.Fatal(err)
	}
	_, err := ReadPattern(strings.NewReader(b.String()))
	if err == nil || !strings.Contains(err.Error(), "repeats ID 27") {
		t.Fatalf("ReadPattern error = %v, want the repeated ID 27 named", err)
	}
}

func TestWrittenPatternIsHumanReadable(t *testing.T) {
	cfg := machine.Exascale()
	p := PatternSpec{Arrivals: 2}.Generate(cfg, rng.New(1))
	var b strings.Builder
	if err := WritePattern(&b, p); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"version"`, `"apps"`, `"arrival_min"`, `"memory_gb_per_node"`} {
		if !strings.Contains(b.String(), field) {
			t.Errorf("serialized pattern missing %s", field)
		}
	}
}
