package workload

import (
	"encoding/json"
	"fmt"
	"io"

	"exaresil/internal/units"
)

// The JSON forms use explicit scalar fields (minutes, gigabytes) rather
// than the internal typed quantities, so saved patterns are readable and
// stable for external tooling.

// classJSON serializes a Class with its full definition, so patterns using
// custom classes round-trip without a registry.
type classJSON struct {
	Name         string  `json:"name"`
	CommFraction float64 `json:"comm_fraction"`
	MemoryGBNode float64 `json:"memory_gb_per_node"`
}

// appJSON serializes one App.
type appJSON struct {
	ID          int       `json:"id"`
	Class       classJSON `json:"class"`
	TimeSteps   int       `json:"time_steps"`
	Nodes       int       `json:"nodes"`
	ArrivalMin  float64   `json:"arrival_min"`
	DeadlineMin float64   `json:"deadline_min,omitempty"`
}

// patternJSON serializes a Pattern.
type patternJSON struct {
	Version     int       `json:"version"`
	InitialFill int       `json:"initial_fill"`
	Apps        []appJSON `json:"apps"`
}

// patternVersion guards the format against silent drift.
const patternVersion = 1

// WritePattern serializes the pattern as indented JSON.
func WritePattern(w io.Writer, p Pattern) error {
	out := patternJSON{Version: patternVersion, InitialFill: p.InitialFill}
	for _, a := range p.Apps {
		out.Apps = append(out.Apps, appJSON{
			ID: a.ID,
			Class: classJSON{
				Name:         a.Class.Name,
				CommFraction: a.Class.CommFraction,
				MemoryGBNode: a.Class.MemoryPerNode.Gigabytes(),
			},
			TimeSteps:   a.TimeSteps,
			Nodes:       a.Nodes,
			ArrivalMin:  a.Arrival.Minutes(),
			DeadlineMin: a.Deadline.Minutes(),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ReadPattern deserializes a pattern written by WritePattern, validating
// every application and refusing a repeated application ID: an ID names
// one application of its pattern (the cluster layer seeds each
// application's failures from it).
func ReadPattern(r io.Reader) (Pattern, error) {
	var in patternJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		return Pattern{}, fmt.Errorf("workload: decoding pattern: %w", err)
	}
	if in.Version != patternVersion {
		return Pattern{}, fmt.Errorf("workload: pattern version %d, this build reads %d", in.Version, patternVersion)
	}
	if in.InitialFill < 0 || in.InitialFill > len(in.Apps) {
		return Pattern{}, fmt.Errorf("workload: initial fill %d out of range for %d apps", in.InitialFill, len(in.Apps))
	}
	p := Pattern{InitialFill: in.InitialFill}
	var last units.Duration
	seen := make(map[int]int, len(in.Apps)) // app ID -> index
	for i, ja := range in.Apps {
		app := App{
			ID: ja.ID,
			Class: Class{
				Name:          ja.Class.Name,
				CommFraction:  ja.Class.CommFraction,
				MemoryPerNode: units.DataSize(ja.Class.MemoryGBNode),
			},
			TimeSteps: ja.TimeSteps,
			Nodes:     ja.Nodes,
			Arrival:   units.Duration(ja.ArrivalMin),
			Deadline:  units.Duration(ja.DeadlineMin),
		}
		if err := app.Validate(); err != nil {
			return Pattern{}, fmt.Errorf("workload: app %d invalid: %w", i, err)
		}
		if app.Arrival < last {
			return Pattern{}, fmt.Errorf("workload: app %d arrives at %v, before its predecessor's %v",
				i, app.Arrival, last)
		}
		if prev, dup := seen[app.ID]; dup {
			return Pattern{}, fmt.Errorf("workload: app %d repeats ID %d of app %d", i, app.ID, prev)
		}
		seen[app.ID] = i
		last = app.Arrival
		p.Apps = append(p.Apps, app)
	}
	return p, nil
}
