package chaos

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"exaresil/internal/obs"
	"exaresil/internal/rng"
)

// Config sets the injector's fault rates. All rates are probabilities in
// [0, 1]; the zero value injects nothing.
type Config struct {
	// Seed drives the decision stream; equal seeds give equal decision
	// sequences.
	Seed uint64
	// LatencyRate is the fraction of HTTP requests delayed by Latency.
	LatencyRate float64
	// Latency is the injected delay (default 50ms when LatencyRate > 0).
	Latency time.Duration
	// ErrorRate is the fraction of HTTP requests answered with a
	// synthetic 500 before reaching the service.
	ErrorRate float64
	// ResetRate is the fraction of HTTP requests whose connection is
	// aborted mid-request (the client sees EOF or a TCP reset). Error and
	// reset are mutually exclusive per request; their rates must sum to
	// at most 1.
	ResetRate float64
	// CrashRate is the fraction of job executions killed mid-run (see
	// Crash and serve.Config.CrashHook).
	CrashRate float64
	// CrashCells bounds how many cells an execution may finish
	// before an injected crash fires: the crash point is drawn uniformly
	// from [1, CrashCells] (default 3).
	CrashCells int
}

// withDefaults fills the defaulted knobs.
func (c Config) withDefaults() Config {
	if c.Latency <= 0 {
		c.Latency = 50 * time.Millisecond
	}
	if c.CrashCells <= 0 {
		c.CrashCells = 3
	}
	return c
}

// Validate reports whether the rates are usable.
func (c Config) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{{"latency", c.LatencyRate}, {"error", c.ErrorRate}, {"reset", c.ResetRate}, {"crash", c.CrashRate}} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("chaos: %s rate %v outside [0, 1]", r.name, r.v)
		}
	}
	if c.ErrorRate+c.ResetRate > 1 {
		return fmt.Errorf("chaos: error rate %v + reset rate %v exceeds 1", c.ErrorRate, c.ResetRate)
	}
	return nil
}

// Injector injects faults per its Config. Safe for concurrent use.
type Injector struct {
	cfg Config
	seq atomic.Uint64

	latency *obs.Counter
	errors  *obs.Counter
	resets  *obs.Counter
	crashes *obs.Counter
}

// New validates cfg and builds an injector, registering the
// exaresil_chaos_* families on reg (nil disables metrics, not faults).
func New(cfg Config, reg *obs.Registry) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	const name, help = "exaresil_chaos_injected_total", "faults injected by kind"
	return &Injector{
		cfg:     cfg,
		latency: reg.Counter(name, help, obs.L("fault", "latency")),
		errors:  reg.Counter(name, help, obs.L("fault", "error")),
		resets:  reg.Counter(name, help, obs.L("fault", "reset")),
		crashes: reg.Counter(name, help, obs.L("fault", "crash")),
	}, nil
}

// roll returns the next value of the seeded uniform decision stream.
func (in *Injector) roll() float64 {
	return rng.Stream(in.cfg.Seed, in.seq.Add(1)).Float64()
}

// exemptPath reports whether an HTTP path is spared from fault injection
// so health probes and metric scrapes stay usable under chaos.
func exemptPath(path string) bool {
	return path == "/healthz" || path == "/metrics"
}

// Middleware wraps an HTTP handler with latency, error, and reset
// injection. Faults fire before the request reaches next, modeling
// failures between the client and a healthy worker.
func (in *Injector) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if exemptPath(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		if in.cfg.LatencyRate > 0 && in.roll() < in.cfg.LatencyRate {
			in.latency.Inc()
			time.Sleep(in.cfg.Latency)
		}
		if in.cfg.ResetRate > 0 || in.cfg.ErrorRate > 0 {
			switch v := in.roll(); {
			case v < in.cfg.ResetRate:
				in.resets.Inc()
				// net/http aborts the connection without a reply; the
				// client observes EOF or a TCP reset.
				panic(http.ErrAbortHandler)
			case v < in.cfg.ResetRate+in.cfg.ErrorRate:
				in.errors.Inc()
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusInternalServerError)
				fmt.Fprintln(w, `{"error":"chaos: injected server error"}`)
				return
			}
		}
		next.ServeHTTP(w, r)
	})
}

// Crash implements the serve.Config.CrashHook contract: it decides
// whether the execution that is about to start should suffer an injected
// worker crash, and after how many freshly computed cells. Exhibits
// without cells (the closed-form tables) never reach a crash point —
// like a real crash landing after the process already wrote its result.
func (in *Injector) Crash() (afterCells int, ok bool) {
	if in.cfg.CrashRate <= 0 || in.roll() >= in.cfg.CrashRate {
		return 0, false
	}
	in.crashes.Inc()
	return 1 + int(in.roll()*float64(in.cfg.CrashCells)), true
}
