package experiments

import (
	"fmt"

	"exaresil/internal/appsim"
	"exaresil/internal/stats"
)

// Progress threads service-level checkpoint/restart through every
// simulating exhibit (see appsim.Progress). Each exhibit runs its grid,
// sweep, energy or selector-probe cells through appsim.Cells; DESIGN.md
// §10.1 lists what each kind of cell records and how multi-range
// exhibits such as fig5 lay out their cell indices.
type Progress = appsim.Progress

// cells runs n cells of width values each through the one cell loop,
// under c's Progress and worker budget (see appsim.Cells).
func (c Config) cells(n, width int, spread bool, run func(cell, trialWorkers int) ([]float64, error)) ([][]float64, error) {
	return appsim.Cells(c.Progress, n, width, c.Workers, spread, run)
}

// summaryWidth is the number of cell values one stats.Summary takes.
const summaryWidth = 6

// summaryValues lays a summary out as cell values; summaryOf reads it
// back. The round trip is exact, so a restored cell renders the bytes a
// computed one does.
func summaryValues(s stats.Summary) []float64 {
	return []float64{float64(s.N), s.Mean, s.StdDev, s.Min, s.Max, s.CI95}
}

func summaryOf(v []float64) stats.Summary {
	return stats.Summary{N: int(v[0]), Mean: v[1], StdDev: v[2], Min: v[3], Max: v[4], CI95: v[5]}
}

// positive rejects a non-positive scale field: drivers have no scale
// defaults, the registry row supplies them (Exhibit.Defaults).
func positive(name string, n int) error {
	if n <= 0 {
		return fmt.Errorf("experiments: %s must be positive, got %d", name, n)
	}
	return nil
}
