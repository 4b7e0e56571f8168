// Command exaserve runs the simulation service: the exasim exhibits behind
// an HTTP job API with a bounded worker pool, single-flight result cache,
// and backpressure (429 + Retry-After when the queue is full).
//
// Submit, poll, fetch:
//
//	exaserve -addr 127.0.0.1:8080 &
//	curl -s -d '{"exhibit":"fig4","patterns":6}' localhost:8080/v1/jobs
//	curl -s localhost:8080/v1/jobs/j00000001
//	curl -s localhost:8080/v1/jobs/j00000001/result
//
// SIGINT/SIGTERM drains: admission stops (503), every queued and running
// job finishes, then the listener closes.
//
// With -autoscale the worker pool is elastic: it grows toward -max-workers
// when the smoothed queue-pressure signal stays above -autoscale-up and
// shrinks toward -min-workers when it stays below -autoscale-down, never
// killing in-flight jobs (a retiring worker finishes its job first).
// Decisions and signals are exported as exaresil_serve_autoscale_*
// metrics; see `exaload scenario autoscale` for the elasticity proof.
//
// The -chaos flag arms the internal/chaos fault injector: seeded random
// latency, synthetic 500s, connection resets, and mid-job worker crashes,
// tuned by the -chaos-* flags and counted in
// exaresil_chaos_injected_total{fault=...}. Crashed jobs fail but leave a
// checkpoint snapshot behind; resubmitting the same spec resumes from it
// (see DESIGN.md §10 and `exaload scenario chaos`).
//
// With -replicas N (N > 1) the same API is served by an internal/mesh
// coordinator instead of a single server: submissions pass an admission
// policy (-admission always|reject-all|token-bucket), a routing policy
// (-routing affinity|least-loaded|random2), and land on one of N embedded
// replicas. Replica death is survivable — heartbeat monitoring re-routes a
// dead replica's jobs to survivors with their checkpoint snapshots carried
// along (DESIGN.md §12). -mesh-kill-interval arms a kill/revive chaos loop
// that exercises exactly that path (see `exaload scenario mesh`).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"exaresil/internal/chaos"
	"exaresil/internal/experiments"
	"exaresil/internal/mesh"
	"exaresil/internal/obs"
	"exaresil/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "exaserve:", err)
		os.Exit(1)
	}
}

func run(argv []string) error {
	fs := flag.NewFlagSet("exaserve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	workers := fs.Int("workers", defaultWorkers(), "worker pool width (concurrent experiment runs)")
	queue := fs.Int("queue", 0, "total queued-job slots across workers (0 = 2x workers)")
	cacheSize := fs.Int("cache", 128, "result cache capacity (finished results)")
	storeSize := fs.Int("store", 1024, "job store capacity (oldest finished jobs age out)")
	jobTimeout := fs.Duration("job-timeout", 0, "per-job execution timeout (0 = none)")
	drainTimeout := fs.Duration("drain-timeout", 60*time.Second, "max time to finish in-flight jobs on shutdown")
	simWorkers := fs.Int("sim-workers", 1, "simulation workers inside each job (results are identical at any width)")
	seed := fs.Uint64("seed", 0, "base experiment seed override (0 = paper default; per-spec seeds still apply)")
	snapshots := fs.Int("snapshots", 0, "checkpoint snapshots retained for interrupted jobs (0 = 64)")
	chaosOn := fs.Bool("chaos", false, "arm the fault injector (see the chaos-* flags)")
	chaosSeed := fs.Uint64("chaos-seed", 1, "chaos decision-stream seed")
	chaosLatencyRate := fs.Float64("chaos-latency-rate", 0.1, "fraction of requests delayed")
	chaosLatency := fs.Duration("chaos-latency", 50*time.Millisecond, "injected request delay")
	chaosErrorRate := fs.Float64("chaos-error-rate", 0.05, "fraction of requests answered with a synthetic 500")
	chaosResetRate := fs.Float64("chaos-reset-rate", 0.05, "fraction of requests whose connection is reset")
	chaosCrashRate := fs.Float64("chaos-crash-rate", 0.2, "fraction of job executions crashed mid-run")
	chaosCrashCells := fs.Int("chaos-crash-cells", 3, "max grid cells a crashed execution completes first")
	autoscale := fs.Bool("autoscale", false, "grow/shrink the worker pool with load (see the autoscale-* and min/max-workers flags)")
	minWorkers := fs.Int("min-workers", 1, "autoscaler pool floor")
	maxWorkers := fs.Int("max-workers", 0, "autoscaler pool ceiling (0 = 4x floor)")
	autoInterval := fs.Duration("autoscale-interval", time.Second, "autoscaler evaluation period")
	autoUp := fs.Float64("autoscale-up", 1.5, "scale up above this smoothed queued-jobs-per-worker signal")
	autoDown := fs.Float64("autoscale-down", 0.25, "scale down below this smoothed queued-jobs-per-worker signal")
	autoCooldown := fs.Duration("autoscale-cooldown", 0, "minimum gap between scaling decisions (0 = 3x interval)")
	replicas := fs.Int("replicas", 1, "embedded replica count (>1 serves through the mesh coordinator)")
	routing := fs.String("routing", "affinity", "mesh routing policy: affinity, least-loaded, or random2")
	admission := fs.String("admission", "always", "mesh admission policy: always, reject-all, or token-bucket")
	admitRate := fs.Float64("admit-rate", 50, "token-bucket refill rate (submissions/s)")
	admitBurst := fs.Int("admit-burst", 100, "token-bucket burst capacity")
	hbInterval := fs.Duration("heartbeat-interval", 100*time.Millisecond, "replica heartbeat period")
	hbTimeout := fs.Duration("heartbeat-timeout", 0, "stale-heartbeat threshold before failover (0 = 5x interval)")
	meshKill := fs.Duration("mesh-kill-interval", 0, "kill-and-revive one replica this often (0 = off; needs -replicas > 1)")
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}

	reg := obs.NewRegistry()
	ecfg := experiments.Default()
	if *seed != 0 {
		ecfg.Seed = *seed
	}
	ecfg.Workers = *simWorkers

	var inj *chaos.Injector
	if *chaosOn {
		var err error
		inj, err = chaos.New(chaos.Config{
			Seed:        *chaosSeed,
			LatencyRate: *chaosLatencyRate,
			Latency:     *chaosLatency,
			ErrorRate:   *chaosErrorRate,
			ResetRate:   *chaosResetRate,
			CrashRate:   *chaosCrashRate,
			CrashCells:  *chaosCrashCells,
		}, reg)
		if err != nil {
			return err
		}
	}

	scfg := serve.Config{
		Experiments:  ecfg,
		Workers:      *workers,
		QueueDepth:   *queue,
		CacheSize:    *cacheSize,
		StoreSize:    *storeSize,
		JobTimeout:   *jobTimeout,
		SnapshotSize: *snapshots,
		Obs:          reg,
	}
	if inj != nil {
		scfg.CrashHook = inj.Crash
	}
	if *autoscale {
		// Resolved here once, so the startup log prints what runs; New
		// resolving it again changes nothing.
		ac := serve.AutoscaleConfig{
			Min:           *minWorkers,
			Max:           *maxWorkers,
			Interval:      *autoInterval,
			UpThreshold:   *autoUp,
			DownThreshold: *autoDown,
			Cooldown:      *autoCooldown,
		}.WithDefaults()
		scfg.Autoscale = &ac
	} else if *minWorkers != 1 || *maxWorkers != 0 {
		return fmt.Errorf("-min-workers/-max-workers need -autoscale")
	}

	// One server or a mesh of them behind the same API; drain is the only
	// lifecycle difference the shutdown path sees. health is what the
	// library resolved for each pool, read back for the startup log.
	var handler http.Handler
	var drain func(context.Context) error
	var health []serve.HealthView
	if *replicas > 1 {
		adm, err := mesh.ParseAdmission(*admission, *admitRate, *admitBurst)
		if err != nil {
			return err
		}
		rtr, err := mesh.ParseRouter(*routing, *replicas, int64(*chaosSeed))
		if err != nil {
			return err
		}
		coord, err := mesh.New(mesh.Config{
			Replicas:          *replicas,
			Serve:             scfg,
			Admission:         adm,
			Router:            rtr,
			HeartbeatInterval: *hbInterval,
			HeartbeatTimeout:  *hbTimeout,
			Obs:               reg,
		})
		if err != nil {
			return err
		}
		handler = coord.Handler()
		drain = coord.Drain
		for _, rv := range coord.MeshView().Replicas {
			health = append(health, rv.Health)
		}
		log.Printf("exaserve: mesh of %d replicas (%s routing, %s admission)", *replicas, rtr.Name(), adm.Name())
		if *meshKill > 0 {
			interval, timeout := coord.Heartbeat()
			go meshKillLoop(coord, *meshKill, timeout+2*interval)
		}
	} else {
		if *meshKill > 0 {
			return fmt.Errorf("-mesh-kill-interval needs -replicas > 1")
		}
		srv, err := serve.New(scfg)
		if err != nil {
			return err
		}
		handler = srv.Handler()
		drain = srv.Drain
		health = []serve.HealthView{srv.Health()}
	}
	if inj != nil {
		handler = inj.Middleware(handler)
		log.Printf("exaserve: chaos armed (seed %d: latency %.0f%%/%s, error %.0f%%, reset %.0f%%, crash %.0f%% after <=%d cells)",
			*chaosSeed, 100**chaosLatencyRate, *chaosLatency, 100**chaosErrorRate, 100**chaosResetRate,
			100**chaosCrashRate, *chaosCrashCells)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: handler}
	workerTotal, slotTotal := 0, 0
	for _, h := range health {
		workerTotal += h.Workers
		slotTotal += h.QueueCapacity
	}
	log.Printf("exaserve: listening on http://%s (%d workers, %d queue slots)", ln.Addr(), workerTotal, slotTotal)
	if ac := scfg.Autoscale; ac != nil {
		log.Printf("exaserve: autoscaler armed (%d-%d workers, every %s, up>%.2f down<%.2f)",
			ac.Min, ac.Max, ac.Interval, ac.UpThreshold, ac.DownThreshold)
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	case sig := <-sigc:
		log.Printf("exaserve: %s received, draining in-flight jobs", sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := drain(ctx); err != nil {
		log.Printf("exaserve: drain: %v", err)
	}
	if err := hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	log.Printf("exaserve: drained, goodbye")
	return nil
}

// meshKillLoop is the mesh-level fault injector: every interval it kills
// one live replica (round-robin), waits out the failure-detection window
// (the coordinator's heartbeat timeout plus two monitor periods), and
// revives it. The last live replica is never killed — the loop
// exercises failover, not total outage.
func meshKillLoop(coord *mesh.Coordinator, every, detect time.Duration) {
	next := 0
	for {
		time.Sleep(every)
		target := next % coord.Replicas()
		next++
		live := 0
		for i := 0; i < coord.Replicas(); i++ {
			if coord.Alive(i) {
				live++
			}
		}
		if live <= 1 || !coord.Alive(target) {
			continue
		}
		log.Printf("exaserve: mesh chaos: killing replica %d", target)
		if err := coord.Kill(target); err != nil {
			log.Printf("exaserve: mesh chaos: kill %d: %v", target, err)
			continue
		}
		time.Sleep(detect)
		if err := coord.Revive(target); err != nil {
			log.Printf("exaserve: mesh chaos: revive %d: %v", target, err)
			continue
		}
		log.Printf("exaserve: mesh chaos: revived replica %d", target)
	}
}

// defaultWorkers sizes the pool to the host without oversubscribing small
// containers.
func defaultWorkers() int {
	n := runtime.NumCPU() / 2
	if n < 1 {
		n = 1
	}
	if n > 8 {
		n = 8
	}
	return n
}
