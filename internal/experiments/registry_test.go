package experiments

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"exaresil/internal/obs"
	"exaresil/internal/workload"
)

func TestRegistryNamesUniqueAndGrouped(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Exhibits() {
		if seen[e.Name] {
			t.Errorf("duplicate exhibit name %q", e.Name)
		}
		seen[e.Name] = true
		if e.Group != "paper" && e.Group != "ext" {
			t.Errorf("%s: unknown group %q", e.Name, e.Group)
		}
		if e.run == nil {
			t.Errorf("%s: nil runner", e.Name)
		}
	}
	for _, g := range GroupNames() {
		if seen[g] {
			t.Errorf("group alias %q collides with an exhibit name", g)
		}
	}
}

func TestLookup(t *testing.T) {
	for _, name := range Names() {
		if _, ok := Lookup(name); !ok {
			t.Errorf("Names lists %q but Lookup misses it", name)
		}
	}
	if _, ok := Lookup("fig9"); ok {
		t.Error("Lookup accepted an unknown name")
	}
	if _, ok := Lookup("all"); ok {
		t.Error("group aliases must not resolve as exhibits")
	}
}

func TestExpandNames(t *testing.T) {
	all, err := ExpandNames(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5"}
	if len(all) != len(want) {
		t.Fatalf("empty list expanded to %v, want %v", all, want)
	}
	for i := range want {
		if all[i] != want[i] {
			t.Fatalf("empty list expanded to %v, want %v", all, want)
		}
	}

	ext, err := ExpandNames([]string{"ext-all"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ext) != 12 || ext[0] != "ext-energy" || ext[len(ext)-1] != "policy" {
		t.Fatalf("ext-all expanded to %v", ext)
	}

	mixed, err := ExpandNames([]string{"fig4", "all"})
	if err != nil {
		t.Fatal(err)
	}
	if mixed[0] != "fig4" || len(mixed) != 1+len(want) {
		t.Fatalf("mixed expansion %v", mixed)
	}

	if _, err := ExpandNames([]string{"fig1", "fig9"}); err == nil {
		t.Error("unknown name accepted")
	} else if !strings.Contains(err.Error(), "fig9") {
		t.Errorf("error does not name the bad exhibit: %v", err)
	}
}

// TestRegistryRunMatchesDirectDrivers pins the registry's plumbing: running
// an exhibit through the table must render exactly what the driver renders
// when invoked directly with the same parameters.
func TestRegistryRunMatchesDirectDrivers(t *testing.T) {
	cfg := Default()

	ex, ok := Lookup("fig1")
	if !ok {
		t.Fatal("fig1 missing")
	}
	got, res, err := ex.Run(cfg, Params{Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, isSweep := res.(SweepResult); !isSweep {
		t.Fatalf("fig1 result has type %T, want SweepResult", res)
	}
	want, _, err := ScalingSpec{Config: cfg, Class: workload.A32, Trials: 2}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Error("registry fig1 diverges from the A32 ScalingSpec")
	}

	ex, _ = Lookup("table2")
	gotT, _, err := ex.Run(cfg, Params{})
	if err != nil {
		t.Fatal(err)
	}
	wantT, err := TableII(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if gotT.String() != wantT.String() {
		t.Error("registry table2 diverges from TableII")
	}
}

func TestRegistryChartKinds(t *testing.T) {
	wantCharts := map[string]ChartKind{
		"fig1": ChartScaling, "fig2": ChartScaling, "fig3": ChartScaling,
		"fig4": ChartCluster, "ext-backfill": ChartCluster,
		"table1": ChartNone, "fig5": ChartNone,
	}
	for name, want := range wantCharts {
		ex, ok := Lookup(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		if ex.Chart != want {
			t.Errorf("%s chart kind %d, want %d", name, ex.Chart, want)
		}
	}
}

// counterTotal sums every series of one counter family.
func counterTotal(r *obs.Registry, name string) float64 {
	var sum float64
	for _, s := range r.Snapshot() {
		if s.Name == name {
			sum += s.Value
		}
	}
	return sum
}

// TestSimulatingExhibitsReportToObs pins that every exhibit which
// simulates says so to Config.Obs: a fresh registry must count executor
// runs or selection probes. table1, table2 and ext-whatif are closed-form.
func TestSimulatingExhibitsReportToObs(t *testing.T) {
	closedForm := map[string]bool{"table1": true, "table2": true, "ext-whatif": true}
	for _, e := range Exhibits() {
		if closedForm[e.Name] {
			continue
		}
		cfg := Default()
		cfg.Obs = obs.NewRegistry()
		if _, _, err := e.Run(cfg, Params{Trials: 2, Patterns: 1, Arrivals: 10}); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		runs := counterTotal(cfg.Obs, "exaresil_resilience_runs_total")
		probes := counterTotal(cfg.Obs, "exaresil_selection_probes_total")
		if runs == 0 && probes == 0 {
			t.Errorf("%s: reported neither executor runs nor selection probes", e.Name)
		}
	}
}

// TestSmallTrialsNeverFallBackToDefaults pins the derived counts of
// ext-menu2 (Trials/2 pairs) and policy (Trials/4 probes): a small
// positive Trials must not round to 0, which the drivers read as "use the
// default", so Trials 1-3 never run more probe trials than Trials 8.
func TestSmallTrialsNeverFallBackToDefaults(t *testing.T) {
	probeTrials := func(name string, trials int) float64 {
		e, _ := Lookup(name)
		cfg := Default()
		cfg.Obs = obs.NewRegistry()
		if _, _, err := e.Run(cfg, Params{Trials: trials}); err != nil {
			t.Fatalf("%s at %d trials: %v", name, trials, err)
		}
		return counterTotal(cfg.Obs, "exaresil_selection_probe_trials_total")
	}
	for _, name := range []string{"ext-menu2", "policy"} {
		ceiling := probeTrials(name, 8)
		if ceiling == 0 {
			t.Fatalf("%s: no probe trials reported at 8 trials", name)
		}
		for trials := 1; trials <= 3; trials++ {
			if n := probeTrials(name, trials); n > ceiling {
				t.Errorf("%s: %g probe trials at %d trials, more than the %g at 8", name, n, trials, ceiling)
			}
		}
	}
}

// simulating counts the goroutines in a stack dump that are inside a
// simulation: an executor run or a cluster run.
func simulating(stacks string) int {
	n := 0
	for _, g := range strings.Split(stacks, "\n\n") {
		if strings.Contains(g, "exaresil/internal/resilience.") || strings.Contains(g, "exaresil/internal/cluster.") {
			n++
		}
	}
	return n
}

// TestOneWorkerRunsOneSimulation samples every goroutine's stack while
// each simulating exhibit runs at Workers: 1, and requires that no two
// simulations ever run at once: the worker budget bounds every level of
// an exhibit's cells, selector probes included.
func TestOneWorkerRunsOneSimulation(t *testing.T) {
	closedForm := map[string]bool{"table1": true, "table2": true, "ext-whatif": true}
	for _, e := range Exhibits() {
		if closedForm[e.Name] {
			continue
		}
		cfg := Default()
		cfg.Workers = 1
		stop, peak := make(chan struct{}), make(chan int)
		go func() {
			most, buf := 0, make([]byte, 1<<20)
			for {
				select {
				case <-stop:
					peak <- most
					return
				default:
				}
				most = max(most, simulating(string(buf[:runtime.Stack(buf, true)])))
				time.Sleep(time.Millisecond)
			}
		}()
		_, _, err := e.Run(cfg, Params{Trials: 8, Patterns: 2, Arrivals: 10})
		close(stop)
		if most := <-peak; most > 1 {
			t.Errorf("%s: %d simulations ran at once at Workers: 1", e.Name, most)
		}
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
	}
}
