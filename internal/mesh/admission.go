package mesh

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// AdmissionPolicy is the mesh's first pipeline stage: it decides whether
// a submission enters routing at all, before any replica is consulted.
// This is fleet-level backpressure, distinct from the per-replica queue
// — a rejected submission costs the mesh nothing downstream.
type AdmissionPolicy interface {
	// Admit reports whether a submission arriving at now proceeds; when
	// it must not, retryAfter suggests the client's backoff (the HTTP
	// layer rounds it up to whole seconds, at least one — "retry now"
	// storms are the exact failure mode admission exists to prevent).
	Admit(now time.Time) (ok bool, retryAfter time.Duration)
	// Name labels the policy in metrics and health output.
	Name() string
}

// AlwaysAdmit passes every submission through to routing (the default).
func AlwaysAdmit() AdmissionPolicy { return alwaysAdmit{} }

type alwaysAdmit struct{}

func (alwaysAdmit) Admit(time.Time) (bool, time.Duration) { return true, 0 }
func (alwaysAdmit) Name() string                          { return "always" }

// RejectAll refuses every submission — the load-shedding kill switch for
// drills and for fencing a mesh off during incident response.
func RejectAll() AdmissionPolicy { return rejectAll{} }

type rejectAll struct{}

func (rejectAll) Admit(time.Time) (bool, time.Duration) { return false, time.Second }
func (rejectAll) Name() string                          { return "reject-all" }

// tokenBucket admits rate submissions per second with a burst allowance,
// refilling on demand (no background goroutine).
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64 // bucket capacity
	tokens float64
	last   time.Time
}

// TokenBucket builds a token-bucket policy admitting rate submissions
// per second with bursts up to burst. Invalid parameters are clamped to
// a minimal working bucket (1/s, burst 1).
func TokenBucket(rate float64, burst int) AdmissionPolicy {
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		rate = 1
	}
	b := float64(burst)
	if b < 1 {
		b = 1
	}
	return &tokenBucket{rate: rate, burst: b, tokens: b}
}

func (tb *tokenBucket) Admit(now time.Time) (bool, time.Duration) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if !tb.last.IsZero() {
		if elapsed := now.Sub(tb.last).Seconds(); elapsed > 0 {
			tb.tokens = math.Min(tb.burst, tb.tokens+elapsed*tb.rate)
		}
	}
	tb.last = now
	if tb.tokens >= 1 {
		tb.tokens--
		return true, 0
	}
	need := (1 - tb.tokens) / tb.rate
	return false, time.Duration(need * float64(time.Second))
}

func (tb *tokenBucket) Name() string { return "token-bucket" }

// ParseAdmission resolves the -admission flag vocabulary: "always",
// "reject-all", or "token-bucket" (parameterized by rate and burst).
func ParseAdmission(name string, rate float64, burst int) (AdmissionPolicy, error) {
	switch name {
	case "", "always":
		return AlwaysAdmit(), nil
	case "reject-all":
		return RejectAll(), nil
	case "token-bucket":
		return TokenBucket(rate, burst), nil
	default:
		return nil, fmt.Errorf("mesh: unknown admission policy %q (want always, reject-all, or token-bucket)", name)
	}
}
