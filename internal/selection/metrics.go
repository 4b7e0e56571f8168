package selection

import (
	"exaresil/internal/obs"
	"exaresil/internal/resilience"
)

// selectorMetrics is the selection layer's observability bundle. Probe
// counts are recorded while the table is built; Choose counters accumulate
// over the selector's lifetime (Choose is called concurrently by cluster
// runs, and the series are atomic). The nil bundle is fully disabled.
type selectorMetrics struct {
	// probes counts Monte-Carlo candidate probes (cells x techniques);
	// probeTrials the runs behind them (probes x trials per probe); cells
	// counts grid cells evaluated.
	probes      *obs.Counter
	probeTrials *obs.Counter
	cells       *obs.Counter
	// cacheHits/cacheMisses record the multilevel schedule memoization
	// activity attributable to the table build (a delta over the
	// process-wide counters, bracketing construction).
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	// chooseHits counts Choose calls answered from the table;
	// chooseFallbacks counts unknown-class fallbacks.
	chooseHits      *obs.Counter
	chooseFallbacks *obs.Counter
}

// newSelectorMetrics registers the selection series on r (nil r yields the
// disabled bundle).
func newSelectorMetrics(r *obs.Registry) *selectorMetrics {
	if r == nil {
		return nil
	}
	return &selectorMetrics{
		probes: r.Counter("exaresil_selection_probes_total",
			"Monte-Carlo candidate probes run while building the table"),
		probeTrials: r.Counter("exaresil_selection_probe_trials_total",
			"Monte-Carlo runs behind the candidate probes"),
		cells: r.Counter("exaresil_selection_cells_total",
			"(class, size) grid cells evaluated"),
		cacheHits: r.Counter("exaresil_selection_schedule_cache_hits_total",
			"multilevel schedule cache hits during the table build"),
		cacheMisses: r.Counter("exaresil_selection_schedule_cache_misses_total",
			"multilevel schedule cache misses during the table build"),
		chooseHits: r.Counter("exaresil_selection_choose_total",
			"Choose calls by resolution", obs.L("result", "table")),
		chooseFallbacks: r.Counter("exaresil_selection_choose_total",
			"Choose calls by resolution", obs.L("result", "fallback")),
	}
}

// observeBuild folds the finished table build into the bundle: cell,
// probe and probe-run counts plus the schedule-cache delta across
// construction.
func (m *selectorMetrics) observeBuild(cells, techniques, trials int, hits0, misses0 uint64) {
	if m == nil {
		return
	}
	m.cells.Add(uint64(cells))
	m.probes.Add(uint64(cells * techniques))
	m.probeTrials.Add(uint64(cells * techniques * trials))
	hits1, misses1 := resilience.ScheduleCacheStats()
	m.cacheHits.Add(hits1 - hits0)
	m.cacheMisses.Add(misses1 - misses0)
}

// observeChoose records one Choose resolution.
func (m *selectorMetrics) observeChoose(fromTable bool) {
	if m == nil {
		return
	}
	if fromTable {
		m.chooseHits.Inc()
	} else {
		m.chooseFallbacks.Inc()
	}
}
