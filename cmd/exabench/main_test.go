package main

import (
	"io"
	"strings"
	"testing"
)

// report is a one-toolchain report at width 2 over the given results.
func report(results ...benchResult) *benchReport {
	return &benchReport{GoVersion: "go1.24.0", GoMaxProcs: 2, Results: results}
}

func TestDiffReports(t *testing.T) {
	fig1 := benchResult{Name: "fig1", NsPerOp: 1e7, BytesPerOp: 9e6, AllocsPerOp: 1000}
	grown := func(ns float64, allocs int64) benchResult {
		return benchResult{Name: "fig1", NsPerOp: ns, BytesPerOp: 9e6, AllocsPerOp: allocs}
	}
	other := benchResult{Name: "cr_run", NsPerOp: 1, AllocsPerOp: 1}
	narrower := report(fig1)
	narrower.GoMaxProcs = 1
	newer := report(fig1)
	newer.GoVersion = "go1.25.0"
	// reruns replays ns/op values, one per rerun of any entry.
	reruns := func(ns ...float64) func(string) float64 {
		return func(string) float64 {
			v := ns[0]
			ns = append(ns[1:], v)
			return v
		}
	}
	for _, tc := range []struct {
		name      string
		base, cur *benchReport
		rerun     func(string) float64 // nil: the run's ns/op again
		want      []string             // substrings of the error; none means it passes
	}{
		{"unchanged", report(fig1), report(fig1), nil, nil},
		{"allocs +10% is within the gate", report(fig1), report(grown(1e7, 1100)), nil, nil},
		{"allocs +11% fails", report(fig1), report(grown(1e7, 1110)), nil, []string{"fig1 allocs/op +11%"}},
		{"ns/op +20% fails", report(fig1), report(grown(1.2e7, 1000)), nil, []string{"fig1 ns/op +20%"}},
		{"noise that recovers on rerun passes", report(fig1), report(grown(1.2e7, 1000)),
			reruns(1.25e7, 1e7, 0.98e7, 1.02e7, 1.3e7), nil},
		{"a persistent +20% fails", report(fig1), report(grown(1.2e7, 1000)),
			reruns(1.19e7, 1.21e7, 1.2e7, 1.05e7, 1.3e7), []string{"fig1 ns/op +20% (median of 5 reruns +20%)"}},
		{"faster and leaner passes", report(fig1), report(grown(5e6, 500)), nil, nil},
		{"entry only in the run never gates", report(fig1), report(fig1, other), nil, nil},
		{"entry only in the baseline never gates", report(fig1, other), report(fig1), nil, nil},
		{"another width is refused", narrower, report(fig1), nil, []string{"gomaxprocs 1", "gomaxprocs 2"}},
		{"another toolchain is refused", newer, report(fig1), nil, []string{"go1.25.0", "go1.24.0"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rerun := tc.rerun
			if rerun == nil {
				rerun = func(name string) float64 {
					for _, r := range tc.cur.Results {
						if r.Name == name {
							return r.NsPerOp
						}
					}
					return 0
				}
			}
			err := diffReports(io.Discard, tc.base, tc.cur, rerun)
			if len(tc.want) == 0 {
				if err != nil {
					t.Fatalf("gate failed: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("gate passed, want an error naming %q", tc.want)
			}
			for _, s := range tc.want {
				if !strings.Contains(err.Error(), s) {
					t.Errorf("error %q does not name %q", err, s)
				}
			}
		})
	}
}
