package appsim

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// Progress is the checkpoint/restart hook of a run of cells (see Cells
// and DESIGN.md §10): finished cells are reported, recorded cells are
// restored, and the run stops between cells once Ctx ends. Restored
// values are the exact float64s a computed cell yields, and cells are
// folded in index order, so a resumed run is bit-identical to a
// from-scratch one. Every field is optional; a nil *Progress is inert.
type Progress struct {
	// Ctx, when non-nil, aborts the run between cells once it is
	// canceled: remaining cells are skipped and the run returns the
	// context's cause. Cells already finished have been reported through
	// OnCell, which is what makes mid-job crashes resumable. A cell in
	// progress runs to its end first, so cancellation waits for at most
	// one cell per worker — seconds for a 100,000-trial sweep cell.
	Ctx context.Context
	// Completed maps cell index → the outcome values recorded by an
	// earlier, interrupted run of the same spec. Cells present here are
	// not recomputed; their values are folded as if just computed.
	Completed map[int][]float64
	// OnCell is called as each fresh (not restored) cell finishes with
	// its outcome values. It must be safe for concurrent use: cells may
	// run on parallel workers.
	OnCell func(cell int, values []float64)

	// base offsets cell indices (see Offset).
	base int
}

// Offset returns a view of p whose cell indices are shifted by n more
// than p's, so the cell ranges of a multi-range run (fig5's per-bias
// grids, then its selector's probes) share one disjoint namespace.
func (p *Progress) Offset(n int) *Progress {
	if p == nil {
		return nil
	}
	q := *p
	q.base += n
	return &q
}

// lookup reports a previously completed cell's recorded values.
func (p *Progress) lookup(cell int) ([]float64, bool) {
	if p == nil || p.Completed == nil {
		return nil, false
	}
	v, ok := p.Completed[cell+p.base]
	return v, ok
}

// note reports one freshly finished cell.
func (p *Progress) note(cell int, values []float64) {
	if p == nil || p.OnCell == nil {
		return
	}
	p.OnCell(cell+p.base, values)
}

// cause returns the abort reason once the run's context is canceled, nil
// otherwise.
func (p *Progress) cause() error {
	if p == nil || p.Ctx == nil || p.Ctx.Err() == nil {
		return nil
	}
	return context.Cause(p.Ctx)
}

// split divides a worker budget (0 = GOMAXPROCS) between the cells of an
// n-cell run and the Monte-Carlo trials inside each cell. Spread cells run
// on up to budget workers with one trial worker each; otherwise cells run
// one at a time with the whole budget on their trials. Either way at most
// budget simulations run at once.
func split(budget, n int, spread bool) (cellWorkers, trialWorkers int) {
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	if !spread {
		return 1, budget
	}
	return max(1, min(budget, n)), 1
}

// Cells is the one loop behind every simulating exhibit: it evaluates
// cells 0..n-1 with run and returns their values in index order, for the
// caller to fold. run receives the cell index and the trial workers it may
// use (see split); it must derive all randomness from the cell index, so
// the values are the same on every worker count and schedule.
//
// A cell recorded in p.Completed with width values is restored instead of
// run. Each fresh cell is reported through p.OnCell. Once p.Ctx is done no
// further cell starts, and Cells returns the context's cause alone; cell
// errors are otherwise joined. The calling goroutine is the first worker,
// so a one-worker run starts no goroutine.
func Cells(p *Progress, n, width, budget int, spread bool, run func(cell, trialWorkers int) ([]float64, error)) ([][]float64, error) {
	cellWorkers, trialWorkers := split(budget, n, spread)
	out := make([][]float64, n)
	errs := make([]error, n)
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1) - 1)
			if i >= n || p.cause() != nil {
				return
			}
			if v, ok := p.lookup(i); ok && len(v) == width {
				out[i] = v
				continue
			}
			out[i], errs[i] = run(i, trialWorkers)
			if errs[i] == nil {
				p.note(i, out[i])
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < cellWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if err := p.cause(); err != nil {
		return nil, err
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return out, nil
}
