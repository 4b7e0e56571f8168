package experiments

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// collector is a concurrency-safe OnCell sink.
type collector struct {
	mu    sync.Mutex
	cells map[int][]float64
}

func newCollector() *collector { return &collector{cells: map[int][]float64{}} }

func (c *collector) onCell(cell int, values []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.cells[cell]; dup {
		panic("duplicate cell index reported")
	}
	c.cells[cell] = values
}

func (c *collector) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.cells)
}

func (c *collector) snapshot() map[int][]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[int][]float64, len(c.cells))
	for k, v := range c.cells {
		out[k] = v
	}
	return out
}

// TestProgressResumeBitIdentical is the checkpoint/restart contract: a
// fig4 grid resumed from recorded cell outcomes renders exactly the
// bytes an uninterrupted run renders, while recomputing nothing.
func TestProgressResumeBitIdentical(t *testing.T) {
	cfg := Default()
	spec := ClusterSpec{Config: cfg, Patterns: 8, Arrivals: 10}

	rec := newCollector()
	fresh := spec
	fresh.Progress = &Progress{OnCell: rec.onCell}
	wantTable, _, err := fresh.Run()
	if err != nil {
		t.Fatal(err)
	}
	total := rec.len()
	if want := 8; total != want { // one cell per pattern, each holding all 3 x 4 combos
		t.Fatalf("fresh run reported %d cells, want %d", total, want)
	}
	for cell, v := range rec.snapshot() {
		if len(v) != 2*12 {
			t.Fatalf("cell %d holds %d values, want a dropped share and a mean wait for each of 12 combos", cell, len(v))
		}
	}

	// Full resume: every cell restored, zero recomputed.
	resumedRec := newCollector()
	resumed := spec
	resumed.Progress = &Progress{Completed: rec.snapshot(), OnCell: resumedRec.onCell}
	gotTable, _, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if resumedRec.len() != 0 {
		t.Fatalf("full resume recomputed %d cells", resumedRec.len())
	}
	if gotTable.String() != wantTable.String() {
		t.Fatal("fully resumed table diverges from the uninterrupted run")
	}

	// Partial resume: drop a few recorded cells; only those are redone.
	partial := rec.snapshot()
	dropped := 0
	for k := range partial {
		delete(partial, k)
		if dropped++; dropped == 5 {
			break
		}
	}
	partialRec := newCollector()
	half := spec
	half.Progress = &Progress{Completed: partial, OnCell: partialRec.onCell}
	gotTable, _, err = half.Run()
	if err != nil {
		t.Fatal(err)
	}
	if partialRec.len() != 5 {
		t.Fatalf("partial resume recomputed %d cells, want 5", partialRec.len())
	}
	if gotTable.String() != wantTable.String() {
		t.Fatal("partially resumed table diverges from the uninterrupted run")
	}
}

// TestProgressAbortReturnsCause: a run whose context is already canceled
// does no work and surfaces the cancellation cause, once.
func TestProgressAbortReturnsCause(t *testing.T) {
	cause := errors.New("injected worker crash")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)

	rec := newCollector()
	spec := ClusterSpec{Config: Default(), Patterns: 2, Arrivals: 10}
	spec.Progress = &Progress{Ctx: ctx, OnCell: rec.onCell}
	_, _, err := spec.Run()
	if !errors.Is(err, cause) {
		t.Fatalf("Run error = %v, want the cancellation cause", err)
	}
	if rec.len() != 0 {
		t.Fatalf("canceled run still computed %d cells", rec.len())
	}
}

// TestProgressCrashThenResume interrupts a run mid-grid (as the serve
// layer's injected crash does: cancel-with-cause from OnCell), then
// resumes from the recorded cells and requires the final table to match
// an uninterrupted run exactly.
func TestProgressCrashThenResume(t *testing.T) {
	cfg := Default()
	spec := ClusterSpec{Config: cfg, Patterns: 8, Arrivals: 10}

	wantTable, _, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}

	crash := errors.New("injected worker crash")
	ctx, cancel := context.WithCancelCause(context.Background())
	rec := newCollector()
	interrupted := spec
	// One worker makes the interruption point deterministic: with many
	// workers, cells already in flight when the cancel lands would still
	// finish and the "strict subset" assertion below could race to 8/8.
	interrupted.Workers = 1
	interrupted.Progress = &Progress{
		Ctx: ctx,
		OnCell: func(cell int, values []float64) {
			rec.onCell(cell, values)
			if rec.len() >= 3 {
				cancel(crash)
			}
		},
	}
	if _, _, err := interrupted.Run(); !errors.Is(err, crash) {
		t.Fatalf("interrupted Run error = %v, want the crash cause", err)
	}
	done := rec.len()
	if done < 3 || done >= 8 {
		t.Fatalf("crash checkpointed %d cells, want a strict subset of 8 with at least 3", done)
	}

	resumedRec := newCollector()
	resumed := spec
	resumed.Progress = &Progress{Completed: rec.snapshot(), OnCell: resumedRec.onCell}
	gotTable, _, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if resumedRec.len() != 8-done {
		t.Fatalf("resume recomputed %d cells, want %d", resumedRec.len(), 8-done)
	}
	if gotTable.String() != wantTable.String() {
		t.Fatal("crash-resumed table diverges from the uninterrupted run")
	}
}

// TestProgressFig5DisjointRanges: fig5 runs one grid per bias and one
// selector; each grid and the probe cells must report into their own
// cell-index range (the collector panics on a duplicate), the probe cells
// right after the last grid's, and a full resume must restore every cell.
func TestProgressFig5DisjointRanges(t *testing.T) {
	cfg := Default()
	spec := SelectionSpec{Config: cfg, Patterns: 2, Arrivals: 8}

	rec := newCollector()
	fresh := spec
	fresh.Progress = &Progress{OnCell: rec.onCell}
	wantTable, _, err := fresh.Run()
	if err != nil {
		t.Fatal(err)
	}
	// 4 biases x 2 patterns (each cell holding 3 schedulers x 2
	// variants), then the selector's 8 classes x 7 sizes probe cells.
	const grid, probes = 4 * 2, 8 * 7
	if rec.len() != grid+probes {
		t.Fatalf("fig5 reported %d cells, want %d", rec.len(), grid+probes)
	}
	for cell, v := range rec.snapshot() {
		if cell < 0 || cell >= grid+probes {
			t.Fatalf("cell index %d outside [0, %d)", cell, grid+probes)
		}
		if cell < grid && len(v) != 2*3*2 {
			t.Fatalf("grid cell %d holds %d values, want a dropped share and a mean wait for each of 6 combos", cell, len(v))
		}
	}

	resumedRec := newCollector()
	resumed := spec
	resumed.Progress = &Progress{Completed: rec.snapshot(), OnCell: resumedRec.onCell}
	gotTable, _, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if resumedRec.len() != 0 {
		t.Fatalf("fig5 full resume recomputed %d cells", resumedRec.len())
	}
	if gotTable.String() != wantTable.String() {
		t.Fatal("fig5 resumed table diverges from the uninterrupted run")
	}
}

// TestProgressNilIsInert: attaching no hook changes nothing — the
// config-level guarantee the serve layer depends on.
func TestProgressNilIsInert(t *testing.T) {
	cfg := Default()
	base := ClusterSpec{Config: cfg, Patterns: 2, Arrivals: 10}
	wantTable, _, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	hooked := base
	hooked.Progress = &Progress{} // non-nil but empty: still inert
	gotTable, _, err := hooked.Run()
	if err != nil {
		t.Fatal(err)
	}
	if gotTable.String() != wantTable.String() {
		t.Fatal("an empty Progress hook changed the exhibit's output")
	}
}
