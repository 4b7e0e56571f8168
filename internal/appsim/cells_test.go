package appsim

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSplitBudget pins how the cell loop spends a worker budget: spread
// cells take one trial worker each, serial cells the whole budget, and a
// budget of 1 never yields a second simulation goroutine at either level.
func TestSplitBudget(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	cases := []struct {
		budget, n     int
		spread        bool
		cells, trials int
	}{
		{1, 56, true, 1, 1},
		{1, 30, false, 1, 1},
		{4, 56, true, 4, 1},
		{4, 2, true, 2, 1},
		{4, 30, false, 1, 4},
		{0, 56, true, min(procs, 56), 1},
		{0, 30, false, 1, procs},
		{3, 0, true, 1, 1},
	}
	for _, c := range cases {
		cells, trials := split(c.budget, c.n, c.spread)
		if cells != c.cells || trials != c.trials {
			t.Errorf("split(%d, %d, %v) = %d cell workers x %d trial workers, want %d x %d",
				c.budget, c.n, c.spread, cells, trials, c.cells, c.trials)
		}
	}
}

// TestCellsContract: values come back in index order whatever the worker
// count; recorded cells of the right width are restored, not run; fresh
// cells are reported once each; a canceled context stops the loop and
// returns its cause; cell errors are joined.
func TestCellsContract(t *testing.T) {
	square := func(i, _ int) ([]float64, error) { return []float64{float64(i * i)}, nil }
	for _, budget := range []int{1, 3} {
		var mu sync.Mutex
		noted := map[int]bool{}
		p := &Progress{
			Completed: map[int][]float64{12: {-1}, 13: {1, 2}}, // 13 has the wrong width
			OnCell: func(cell int, _ []float64) {
				mu.Lock()
				defer mu.Unlock()
				if noted[cell] {
					t.Errorf("cell %d reported twice", cell)
				}
				noted[cell] = true
			},
		}
		out, err := Cells(p.Offset(10), 5, 1, budget, true, square)
		if err != nil {
			t.Fatal(err)
		}
		want := [][]float64{{0}, {1}, {-1}, {9}, {16}}
		for i := range want {
			if out[i][0] != want[i][0] {
				t.Fatalf("budget %d: cell %d = %v, want %v", budget, i, out[i], want[i])
			}
		}
		if len(noted) != 4 || noted[12] || !noted[13] {
			t.Fatalf("budget %d: reported cells %v, want all but the restored 12", budget, noted)
		}
	}

	crash := errors.New("crash")
	ctx, cancel := context.WithCancelCause(context.Background())
	var ran atomic.Int32
	_, err := Cells(&Progress{Ctx: ctx, OnCell: func(int, []float64) { cancel(crash) }}, 10, 1, 1, false,
		func(i, _ int) ([]float64, error) { ran.Add(1); return []float64{0}, nil })
	if !errors.Is(err, crash) || ran.Load() != 1 {
		t.Fatalf("canceled after the first cell: err %v after %d cells, want the cause after 1", err, ran.Load())
	}

	bad := errors.New("bad cell")
	_, err = Cells(nil, 4, 1, 2, true, func(i, _ int) ([]float64, error) {
		if i%2 == 1 {
			return nil, bad
		}
		return []float64{0}, nil
	})
	if !errors.Is(err, bad) {
		t.Fatalf("cell errors: got %v", err)
	}
}
