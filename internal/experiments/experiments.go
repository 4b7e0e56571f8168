// Package experiments reproduces every exhibit of the paper's evaluation:
// Tables I and II, the application-scaling figures (1-3), the resource-
// management figure (4), and the resilience-selection figure (5). Each
// driver returns both a rendered report table (the figure's underlying
// data series) and a structured result for tests and benchmarks.
package experiments

import (
	"fmt"

	"exaresil/internal/core"
	"exaresil/internal/failures"
	"exaresil/internal/machine"
	"exaresil/internal/obs"
	"exaresil/internal/resilience"
	"exaresil/internal/units"
)

// Config carries the parameters shared by every experiment.
type Config struct {
	// Machine is the simulated platform (default: the paper's projected
	// exascale machine).
	Machine machine.Config
	// SeverityPMF is the failure-severity distribution.
	SeverityPMF failures.SeverityPMF
	// Resilience tunes technique parameters.
	Resilience resilience.Config
	// Seed drives all randomness; equal seeds reproduce exhibits
	// bit-for-bit.
	Seed uint64
	// Workers bounds parallelism (default GOMAXPROCS).
	Workers int
	// Obs, when non-nil, collects metrics from every simulation a driver
	// runs (see internal/obs). Attaching a registry never changes any
	// exhibit's numbers: the series only count.
	Obs *obs.Registry
	// Progress, when non-nil, receives per-cell completion events from
	// every simulating exhibit, stops it between cells once its context
	// ends, and can pre-fill cells completed by an earlier, interrupted
	// run (checkpoint/restart; see Progress). Attaching a hook never
	// changes any exhibit's numbers.
	Progress *Progress
}

// Default returns the paper's configuration.
func Default() Config {
	return Config{
		Machine:     machine.Exascale(),
		SeverityPMF: failures.DefaultSeverityPMF(),
		Resilience:  resilience.DefaultConfig(),
		Seed:        20170529, // IPDPSW 2017 opening day
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.Machine.Validate(); err != nil {
		return err
	}
	if err := c.SeverityPMF.Validate(); err != nil {
		return err
	}
	return c.Resilience.Validate()
}

// model builds the failure model for a given MTBF (zero means the
// machine's).
func (c Config) model(mtbf units.Duration) (*failures.Model, error) {
	if mtbf <= 0 {
		mtbf = c.Machine.MTBF
	}
	return failures.NewModel(mtbf, c.SeverityPMF)
}

// techColumns is a per-technique table's header: the label columns, then
// one column per technique.
func techColumns(techniques []core.Technique, labels ...string) []string {
	for _, tech := range techniques {
		labels = append(labels, tech.String())
	}
	return labels
}

// fracLabel formats a machine fraction as the figures' x-axis labels do.
func fracLabel(f float64) string {
	return fmt.Sprintf("%g%%", 100*f)
}
