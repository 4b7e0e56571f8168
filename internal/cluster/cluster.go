// Package cluster simulates an oversubscribed exascale machine serving an
// arrival pattern of applications under a resource-management heuristic and
// a resilience technique (Sections VI and VII of the paper).
//
// The cluster simulation rides on a statistical property of the failure
// model: failures strike uniformly at random over active nodes and form a
// Poisson process, so by Poisson thinning each application experiences an
// independent Poisson failure process with rate N_a/M_n regardless of what
// else is running. The cluster's discrete-event simulation therefore only
// has to coordinate arrivals, mapping events, node accounting, completions,
// and deadline drops; each mapped application's trajectory is produced by
// its own resilience executor. That process also starts with the
// application, so its trajectory does not depend on when it starts: RunAll
// simulates it once and places it at every start (trajectory.go).
package cluster

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"exaresil/internal/core"
	"exaresil/internal/des"
	"exaresil/internal/failures"
	"exaresil/internal/machine"
	"exaresil/internal/obs"
	"exaresil/internal/resilience"
	"exaresil/internal/rng"
	"exaresil/internal/sched"
	"exaresil/internal/stats"
	"exaresil/internal/units"
	"exaresil/internal/workload"
)

// TechniqueChooser selects the resilience technique for an application at
// mapping time. The Section VII "Resilience Selection" policy is one such
// chooser; a constant function reproduces the single-technique studies.
type TechniqueChooser func(app workload.App) core.Technique

// Spec configures one cluster simulation run.
type Spec struct {
	// Machine is the hardware configuration.
	Machine machine.Config
	// Model is the failure model (MTBF and severity distribution).
	Model *failures.Model
	// Scheduler selects the resource-management heuristic.
	Scheduler core.Scheduler
	// Technique is the resilience technique applied to every
	// application; ignored when Chooser is non-nil.
	Technique core.Technique
	// Chooser, when non-nil, selects a technique per application.
	Chooser TechniqueChooser
	// Resilience tunes technique parameters.
	Resilience resilience.Config
	// Placement selects the node class hosting each started application
	// when Machine is heterogeneous (see placement.go); ignored — and
	// zero-cost — on homogeneous machines.
	Placement PlacementPolicy
	// Pattern is the submission workload.
	Pattern workload.Pattern
	// Seed drives every random choice in the run.
	Seed uint64
	// Obs, when non-nil, receives the run's metrics: cluster series
	// (queue depth, utilization, per-outcome counts, mapper invocations),
	// the resilience time split of every executor the run builds, and the
	// event counters of every simulator involved. Attaching a registry
	// never changes simulation behavior — the series only count — so runs
	// with and without Obs are bit-identical.
	Obs *obs.Registry
	// Mirror antithetically reflects every continuous random draw of the
	// run (failure inter-arrival times; see rng.SetMirror). A mirrored run
	// over the same Spec is the antithetic twin of the plain run: averaging
	// the pair cancels first-order Monte-Carlo noise in the failure draws,
	// which is how the variance-reduced exhibit modes halve their pattern
	// counts at equal confidence width. Discrete draws (mapper orderings,
	// failure locations and severities) are unaffected by construction.
	Mirror bool
}

// Outcome classifies how an application left the system.
type Outcome int

// The possible application fates.
const (
	// OutcomeCompleted: finished before its deadline.
	OutcomeCompleted Outcome = iota
	// OutcomeDroppedQueued: dropped while waiting (negative slack at a
	// mapping event, or a technique that cannot place it at all).
	OutcomeDroppedQueued
	// OutcomeDroppedRunning: started but failed to finish by its
	// deadline; it occupied nodes until the deadline and was removed.
	OutcomeDroppedRunning
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeCompleted:
		return "completed"
	case OutcomeDroppedQueued:
		return "dropped-queued"
	case OutcomeDroppedRunning:
		return "dropped-running"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// AppResult records one application's fate.
type AppResult struct {
	// App is the application descriptor.
	App workload.App
	// Technique is the resilience technique it ran under.
	Technique core.Technique
	// Outcome classifies its fate.
	Outcome Outcome
	// Started reports whether it ever occupied nodes, and Start when.
	Started bool
	Start   units.Duration
	// End is when it left the system (completion, drop, or deadline).
	End units.Duration
	// PhysNodes is the number of machine nodes the application occupied
	// while running (more than App.Nodes for redundant techniques); set
	// whether or not it ever started.
	PhysNodes int
	// Class names the node class that hosted the application on a
	// heterogeneous machine; empty for homogeneous runs and for
	// applications that never started.
	Class string
}

// Waited reports how long the application queued before starting (or
// before being dropped, if it never started).
func (r AppResult) Waited() units.Duration {
	if !r.Started {
		return r.End - r.App.Arrival
	}
	return r.Start - r.App.Arrival
}

// Metrics aggregates one run.
type Metrics struct {
	// Total, Completed and Dropped count applications; Dropped is the
	// paper's Figure 4/5 headline metric.
	Total, Completed, Dropped int
	// DroppedQueued and DroppedRunning decompose Dropped.
	DroppedQueued, DroppedRunning int
	// MeanWait summarizes queueing delay over all applications.
	MeanWait units.Duration
	// MeanEfficiency summarizes baseline/makespan over completed apps.
	MeanEfficiency float64
	// MakespanEnd is when the last application left the system.
	MakespanEnd units.Duration
	// PeakUtilization is the maximum fraction of nodes ever in use.
	PeakUtilization float64
	// AvgUtilization is the time-averaged fraction of nodes in use from
	// time zero until the last departure.
	AvgUtilization float64
	// Results holds every application's fate, in pattern order.
	Results []AppResult
}

// DroppedPct reports the percentage of applications dropped.
func (m Metrics) DroppedPct() float64 {
	if m.Total == 0 {
		return 0
	}
	return 100 * float64(m.Dropped) / float64(m.Total)
}

// job is the cluster's per-application state.
type job struct {
	app         workload.App
	index       int // position in the pattern
	tech        core.Technique
	exec        *resilience.Executor
	phys        int // physical nodes when running
	arrived     bool
	started     bool
	running     bool
	finished    bool
	expectedEnd units.Duration
	result      AppResult

	// Mapping-event generation stamps. A job was a candidate, was
	// dropped, or was started in this mapping event iff the stamp equals
	// the run's current generation; bumping the generation resets all
	// three for every job at once, replacing the per-event maps the
	// mapper bookkeeping used to allocate.
	candGen, dropGen, startGen uint64
}

// Run executes one cluster simulation: RunAll's one-spec case.
func Run(spec Spec) (Metrics, error) {
	ms, err := RunAll([]Spec{spec})
	if err != nil {
		return Metrics{}, err
	}
	return ms[0], nil
}

// RunAll executes the cluster simulations of specs in order and returns
// their metrics, each exactly what Run returns for its spec. The specs may
// differ in policy (machine, scheduler, technique or chooser, placement)
// but must share pattern, seed, mirror, failure model, resilience config
// and registry; RunAll refuses any that do not. They then share every
// application trajectory: each application is simulated once per
// technique and machine or node class, however many specs start it
// (DESIGN.md §4.4).
func RunAll(specs []Spec) ([]Metrics, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	first := specs[0]
	for i, s := range specs[1:] {
		if err := sameWorkload(first, s); err != nil {
			return nil, fmt.Errorf("cluster: spec %d: %w", i+1, err)
		}
	}
	if first.Model == nil {
		return nil, fmt.Errorf("cluster: nil failure model")
	}
	if err := first.Resilience.Validate(); err != nil {
		return nil, err
	}
	index := make(map[int]int, len(first.Pattern.Apps)) // app ID -> index in the pattern
	for i, app := range first.Pattern.Apps {
		if err := app.Validate(); err != nil {
			return nil, err
		}
		if prev, dup := index[app.ID]; dup {
			return nil, fmt.Errorf("cluster: pattern repeats application ID %d (apps %d and %d)", app.ID, prev, i)
		}
		index[app.ID] = i
	}

	table := newTrajectories(specs)
	out := make([]Metrics, len(specs))
	for i, spec := range specs {
		m, err := runOne(spec, index, table)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// sameWorkload reports why spec s cannot share first's trajectories.
func sameWorkload(first, s Spec) error {
	switch {
	case s.Pattern.InitialFill != first.Pattern.InitialFill || !slices.Equal(s.Pattern.Apps, first.Pattern.Apps):
		return fmt.Errorf("another pattern")
	case s.Seed != first.Seed:
		return fmt.Errorf("seed %d, not %d", s.Seed, first.Seed)
	case s.Mirror != first.Mirror:
		return fmt.Errorf("mirror %t, not %t", s.Mirror, first.Mirror)
	case s.Model != first.Model:
		return fmt.Errorf("another failure model")
	case s.Resilience != first.Resilience:
		return fmt.Errorf("another resilience config")
	case s.Obs != first.Obs:
		return fmt.Errorf("another registry")
	}
	return nil
}

// runOne executes one spec of a RunAll call over its trajectory table.
func runOne(spec Spec, index map[int]int, table *trajectories) (Metrics, error) {
	if err := spec.Machine.Validate(); err != nil {
		return Metrics{}, err
	}
	mapper, err := sched.New(spec.Scheduler)
	if err != nil {
		return Metrics{}, err
	}
	chooser := spec.Chooser
	if chooser == nil {
		fixed := spec.Technique
		if !fixed.Valid() {
			return Metrics{}, fmt.Errorf("cluster: invalid technique %v", fixed)
		}
		chooser = func(workload.App) core.Technique { return fixed }
	}

	// One contiguous backing array for the per-application state; jobs
	// stay addressed through stable pointers, but the run allocates once
	// instead of once per application.
	backing := make([]job, len(spec.Pattern.Apps))
	jobs := make([]*job, len(spec.Pattern.Apps))
	for i, app := range spec.Pattern.Apps {
		backing[i] = job{app: app, index: i}
		jobs[i] = &backing[i]
	}

	classes, err := buildClasses(spec)
	if err != nil {
		return Metrics{}, err
	}

	c := &run{
		spec:    spec,
		mapper:  mapper,
		chooser: chooser,
		jobs:    jobs,
		index:   index,
		classes: classes,
		free:    spec.Machine.Nodes,
		sim:     des.NewPooled(),
		m:       newClusterMetrics(spec.Obs),
		table:   table,
		slot:    table.slotBase(spec.Machine),
	}
	for i, cls := range classes {
		cls.slot = c.slot + i
		c.m.observeClassFree(cls.class.Name, cls.free)
	}
	c.mapSrc.SetStream(spec.Seed, 1_000_000_007)
	c.mapSrc.SetMirror(spec.Mirror)
	c.sim.SetMetrics(des.NewMetrics(spec.Obs))
	return c.execute()
}

// run is the in-flight simulation state.
type run struct {
	spec    Spec
	mapper  sched.Mapper
	chooser TechniqueChooser
	jobs    []*job
	index   map[int]int   // app ID -> index in the pattern, shared by a RunAll call
	classes []*classState // per-class ledgers; nil for homogeneous machines
	queue   []*job
	free    int
	sim     *des.Simulator
	mapSrc  rng.Source
	mapping bool   // a mapping event is already pending at the current time
	mapGen  uint64 // current mapping-event generation (see job stamps)
	peak    int
	err     error
	m       *clusterMetrics
	table   *trajectories // the trajectories every run of the pattern shares
	slot    int           // the machine's trajectory-table slot (its first class's)

	// mappingCb is the shared mapping-event callback, bound once.
	mappingCb des.Callback

	// cands and running are the mapper-argument buffers, reused across
	// mapping events.
	cands   []sched.Candidate
	running []sched.Running

	// busyIntegral accumulates used-node x time; busySince marks the last
	// time the used count changed.
	busyIntegral float64
	busySince    units.Duration
}

// noteUtilization folds the interval since the last node-count change into
// the utilization integral. Call before every change to free.
func (c *run) noteUtilization() {
	now := c.sim.Now()
	used := c.spec.Machine.Nodes - c.free
	c.busyIntegral += float64(used) * float64(now-c.busySince)
	c.busySince = now
	c.m.observeUtilization(float64(used) / float64(c.spec.Machine.Nodes))
}

func (c *run) execute() (Metrics, error) {
	// All arrival events share one callback. Events fire in (time, seq)
	// order and the arrivals are scheduled first, in job order, so the
	// k-th arrival to fire is exactly the k-th index of a stable sort of
	// the jobs by arrival time — identical to binding each job into its
	// own closure, without the per-job allocation.
	order := make([]int32, len(c.jobs))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int {
		return cmp.Compare(c.jobs[a].app.Arrival, c.jobs[b].app.Arrival)
	})
	next := 0
	arriveCb := func(*des.Simulator) {
		j := c.jobs[order[next]]
		next++
		c.arrive(j)
	}
	for _, j := range c.jobs {
		c.sim.Schedule(j.app.Arrival, "arrival", arriveCb)
	}
	c.sim.Run()
	if c.err != nil {
		return Metrics{}, c.err
	}

	m := Metrics{Total: len(c.jobs), Results: make([]AppResult, len(c.jobs))}
	var wait stats.Accumulator
	var eff stats.Accumulator
	for i, j := range c.jobs {
		if !j.finished {
			return Metrics{}, fmt.Errorf("cluster: job %d never resolved", j.app.ID)
		}
		m.Results[i] = j.result
		wait.Add(j.result.Waited().Minutes())
		switch j.result.Outcome {
		case OutcomeCompleted:
			m.Completed++
			eff.Add(float64(j.app.Baseline()) / float64(j.result.End-j.result.Start))
			if j.result.End > m.MakespanEnd {
				m.MakespanEnd = j.result.End
			}
		case OutcomeDroppedQueued:
			m.Dropped++
			m.DroppedQueued++
		case OutcomeDroppedRunning:
			m.Dropped++
			m.DroppedRunning++
		}
		if j.result.End > m.MakespanEnd {
			m.MakespanEnd = j.result.End
		}
	}
	m.MeanWait = units.Duration(wait.Mean())
	m.MeanEfficiency = eff.Mean()
	m.PeakUtilization = float64(c.peak) / float64(c.spec.Machine.Nodes)
	if m.MakespanEnd > 0 {
		m.AvgUtilization = c.busyIntegral / (float64(c.spec.Machine.Nodes) * float64(m.MakespanEnd))
	}
	return m, nil
}

// arrive enqueues an application and triggers a mapping event.
func (c *run) arrive(j *job) {
	j.arrived = true
	c.queue = append(c.queue, j)
	c.triggerMapping()
}

// triggerMapping schedules a mapping event at the current instant unless
// one is already pending, coalescing the burst of arrivals at time zero.
// The callback is bound once and shared by every mapping event.
func (c *run) triggerMapping() {
	if c.mapping || c.err != nil {
		return
	}
	c.mapping = true
	if c.mappingCb == nil {
		c.mappingCb = func(*des.Simulator) {
			c.mapping = false
			c.mapEvent()
		}
	}
	c.sim.After(0, "mapping", c.mappingCb)
}

// mapEvent runs the resource-management heuristic over the queue.
func (c *run) mapEvent() {
	if c.err != nil || len(c.queue) == 0 {
		return
	}
	now := c.sim.Now()

	// One generation per mapping event: stamping a job's candGen /
	// dropGen / startGen to gen replaces per-event candidate, dropped
	// and started maps.
	c.mapGen++
	gen := c.mapGen

	cands := c.cands[:0]
	viableQueue := c.queue[:0]
	for _, j := range c.queue {
		if j.exec == nil {
			if err := c.prepare(j); err != nil {
				c.err = err
				c.sim.Stop()
				return
			}
		}
		if ok, _ := j.exec.Viable(); !ok || !c.fitsAnyClass(j.phys) {
			// The chosen technique can never execute this application
			// (e.g. its replica set exceeds the machine, or no node class
			// is large enough for its footprint): drop it now rather than
			// let it sit in the queue forever.
			c.resolve(j, AppResult{
				App: j.app, Technique: j.tech, PhysNodes: j.phys,
				Outcome: OutcomeDroppedQueued, End: now,
			})
			continue
		}
		viableQueue = append(viableQueue, j)
		j.candGen = gen
		cands = append(cands, sched.Candidate{
			ID:       j.app.ID,
			Nodes:    j.phys,
			Arrival:  j.app.Arrival,
			Baseline: j.app.Baseline(),
			Deadline: j.app.Deadline,
		})
	}
	c.cands = cands
	c.queue = viableQueue
	if len(c.queue) == 0 {
		return
	}

	c.m.observeMapEvent(len(c.queue))
	running := c.running[:0]
	for _, j := range c.jobs {
		if j.running {
			running = append(running, sched.Running{Nodes: j.phys, ExpectedEnd: j.expectedEnd})
		}
	}
	c.running = running
	d := c.mapper.Map(sched.Context{
		Now:       now,
		FreeNodes: c.free,
		Queue:     cands,
		Running:   running,
	}, &c.mapSrc)

	changed := 0
	for _, id := range d.Drop {
		j := c.job(id)
		if j == nil || j.candGen != gen || j.dropGen == gen {
			continue
		}
		j.dropGen = gen
		changed++
		c.resolve(j, AppResult{
			App: j.app, Technique: j.tech, PhysNodes: j.phys,
			Outcome: OutcomeDroppedQueued, End: now,
		})
	}

	for _, id := range d.Start {
		j := c.job(id)
		if j == nil || j.candGen != gen || j.dropGen == gen || j.startGen == gen {
			continue
		}
		if j.phys > c.free {
			c.err = fmt.Errorf("cluster: %v over-allocated: job %d needs %d nodes, %d free",
				c.mapper.Kind(), id, j.phys, c.free)
			c.sim.Stop()
			return
		}
		var cls *classState
		var clsExec *resilience.Executor
		if c.classes != nil {
			cls, clsExec = c.placeClass(j)
			if c.err != nil {
				return
			}
			if cls == nil {
				// Aggregate free capacity admitted the job but no single
				// class currently has room for its footprint
				// (fragmentation). Leave it queued — its startGen is not
				// stamped, so it survives the queue filter below and the
				// next departure's mapping event retries it.
				continue
			}
		}
		j.startGen = gen
		changed++
		c.start(j, cls, clsExec, now)
	}

	if changed == 0 {
		return
	}
	remaining := c.queue[:0]
	for _, j := range c.queue {
		if j.dropGen != gen && j.startGen != gen {
			remaining = append(remaining, j)
		}
	}
	c.queue = remaining
}

// job returns the job of the given app ID, nil if the pattern has none.
func (c *run) job(id int) *job {
	i, ok := c.index[id]
	if !ok {
		return nil
	}
	return c.jobs[i]
}

// prepare builds the job's executor (choosing its technique) on first
// consideration.
func (c *run) prepare(j *job) error {
	j.tech = c.chooser(j.app)
	exec, err := resilience.New(j.tech, j.app, c.spec.Machine, c.spec.Model, c.spec.Resilience)
	if err != nil {
		return fmt.Errorf("cluster: building executor for app %d: %w", j.app.ID, err)
	}
	j.exec = exec
	j.phys = exec.PhysicalNodes()
	return nil
}

// fitsAnyClass reports whether some node class could ever host the given
// footprint. Always true on homogeneous machines (the Viable check already
// covers the whole-machine bound there).
func (c *run) fitsAnyClass(phys int) bool {
	if c.classes == nil {
		return true
	}
	for _, cls := range c.classes {
		if cls.class.Count >= phys {
			return true
		}
	}
	return false
}

// start places a job on the machine and its trajectory at now. On a
// heterogeneous machine cls is the hosting class and clsExec the executor
// built against it (both nil for homogeneous runs, where j.exec runs on
// the base machine).
func (c *run) start(j *job, cls *classState, clsExec *resilience.Executor, now units.Duration) {
	c.noteUtilization()
	c.free -= j.phys
	if cls != nil {
		cls.free -= j.phys
		c.m.observeClassFree(cls.class.Name, cls.free)
	}
	if used := c.spec.Machine.Nodes - c.free; used > c.peak {
		c.peak = used
	}
	j.started = true
	c.m.observeStart()

	horizon := j.app.Deadline
	if horizon <= now {
		if horizon <= 0 {
			// Deadline-free app: bound the run defensively.
			horizon = now + units.Duration(100*float64(j.app.Baseline()))
		} else {
			// Deadline already passed (can happen under FCFS/Random,
			// which never drop): it occupies nothing and leaves now.
			// The mapper's ledger had reserved its nodes, so re-run
			// mapping at this instant for anything it crowded out.
			// (The same-instant alloc/free cancels in the utilization
			// integral.)
			c.free += j.phys
			if cls != nil {
				cls.free += j.phys
				c.m.observeClassFree(cls.class.Name, cls.free)
			}
			j.started = false
			c.resolve(j, AppResult{
				App: j.app, Technique: j.tech, PhysNodes: j.phys,
				Outcome: OutcomeDroppedQueued, End: now,
			})
			c.triggerMapping()
			return
		}
	}

	exec, slot := j.exec, c.slot
	class := ""
	if clsExec != nil {
		exec, slot = clsExec, cls.slot
		class = cls.class.Name
	}
	// The trajectory is measured from the start: the app completes if
	// its trajectory completes within the window the horizon leaves.
	tr := c.table.get(slot, j.index, exec, j.app, horizon-now)
	end := horizon
	outcome := OutcomeDroppedRunning
	if tr.completed && tr.end <= horizon-now {
		end = now + tr.end
		outcome = OutcomeCompleted
	}
	if math.IsInf(float64(end), 1) || end <= now {
		end = now + j.app.Baseline()
	}
	j.running = true
	j.expectedEnd = end
	c.sim.Schedule(end, "departure", func(*des.Simulator) {
		c.noteUtilization()
		c.free += j.phys
		if cls != nil {
			cls.free += j.phys
			c.m.observeClassFree(cls.class.Name, cls.free)
		}
		j.running = false
		c.resolve(j, AppResult{
			App: j.app, Technique: j.tech, PhysNodes: j.phys, Class: class,
			Outcome: outcome, Started: true, Start: now, End: end,
		})
		c.triggerMapping()
	})
}

// resolve finalizes a job's fate.
func (c *run) resolve(j *job, r AppResult) {
	if j.finished {
		c.err = fmt.Errorf("cluster: job %d resolved twice", j.app.ID)
		c.sim.Stop()
		return
	}
	j.finished = true
	j.result = r
	c.m.observeResolve(r)
}
