package serveclient

import (
	"math"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestBackoffSchedule pins the unjittered schedule: exponential growth
// from Base by Factor, capped at Max, with Retry-After overriding all of
// it verbatim.
func TestBackoffSchedule(t *testing.T) {
	cases := []struct {
		name       string
		b          Backoff
		attempt    int
		retryAfter time.Duration
		want       time.Duration
	}{
		{"defaults attempt 0", Backoff{}, 0, 0, 50 * time.Millisecond},
		{"defaults attempt 1", Backoff{}, 1, 0, 100 * time.Millisecond},
		{"defaults attempt 3", Backoff{}, 3, 0, 400 * time.Millisecond},
		{"defaults capped", Backoff{}, 20, 0, 5 * time.Second},
		{"negative attempt clamps to 0", Backoff{}, -3, 0, 50 * time.Millisecond},
		{"custom base and factor", Backoff{Base: 10 * time.Millisecond, Factor: 3}, 2, 0, 90 * time.Millisecond},
		{"custom max", Backoff{Base: time.Second, Max: 2 * time.Second}, 5, 0, 2 * time.Second},
		{"huge attempt does not overflow", Backoff{}, 1 << 20, 0, 5 * time.Second},
		{"retry-after overrides schedule", Backoff{}, 0, 3 * time.Second, 3 * time.Second},
		{"retry-after overrides the cap", Backoff{Max: time.Second}, 0, 30 * time.Second, 30 * time.Second},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.b.Delay(tc.attempt, tc.retryAfter, nil); got != tc.want {
				t.Fatalf("Delay(%d, %v) = %v, want %v", tc.attempt, tc.retryAfter, got, tc.want)
			}
		})
	}
}

// TestBackoffJitterBounds draws many jittered delays and checks each one
// lands in [(1-Jitter)·d, d] — jitter only ever shortens the wait.
func TestBackoffJitterBounds(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Jitter: 0.5}
	full := b.Delay(2, 0, nil) // 400ms unjittered
	floor := time.Duration(float64(full) * 0.5)
	seq := []float64{0, 0.25, 0.5, 0.9999, 0.1}
	i := 0
	rnd := func() float64 { v := seq[i%len(seq)]; i++; return v }
	seen := map[time.Duration]bool{}
	for range seq {
		d := b.Delay(2, 0, rnd)
		if d < floor || d > full {
			t.Fatalf("jittered delay %v outside [%v, %v]", d, floor, full)
		}
		seen[d] = true
	}
	if len(seen) < 3 {
		t.Fatalf("jitter produced only %d distinct delays from %d distinct variates", len(seen), len(seq))
	}
	// Retry-After stays unjittered even with a rnd source supplied.
	if got := b.Delay(2, time.Second, rnd); got != time.Second {
		t.Fatalf("jittered Retry-After = %v, want exactly 1s", got)
	}
}

// TestParseRetryAfter covers the integer-seconds header contract.
func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		header string
		want   time.Duration
	}{
		{"", 0},
		{"2", 2 * time.Second},
		{" 7 ", 7 * time.Second},
		{"0", 0},
		{"-3", 0},
		{"soon", 0},
		{"Wed, 21 Oct 2015 07:28:00 GMT", 0},
		{"9223372036", 9223372036 * time.Second},
		{"9223372037", math.MaxInt64}, // saturates instead of wrapping
		{"99999999999999999999", math.MaxInt64},
		{"-99999999999999999999", 0},
	}
	for _, tc := range cases {
		h := http.Header{}
		if tc.header != "" {
			h.Set("Retry-After", tc.header)
		}
		if got := parseRetryAfter(h); got != tc.want {
			t.Fatalf("parseRetryAfter(%q) = %v, want %v", tc.header, got, tc.want)
		}
	}
}

// FuzzParseRetryAfter: whatever the header, the wait is never negative,
// and appending a digit to a numeric header — a larger number — never
// shortens it, however far past the largest Duration the number runs.
func FuzzParseRetryAfter(f *testing.F) {
	for _, seed := range []string{"", "2", " 7 ", "+5", "-3", "soon", "9223372036", "9223372037", "99999999999999999999"} {
		f.Add(seed)
	}
	wait := func(v string) time.Duration {
		h := http.Header{}
		h.Set("Retry-After", v)
		return parseRetryAfter(h)
	}
	f.Fuzz(func(t *testing.T, v string) {
		got := wait(v)
		if got < 0 {
			t.Fatalf("Retry-After %q: wait %v is negative", v, got)
		}
		digits := strings.TrimSpace(v)
		if digits == "" || strings.Trim(digits, "0123456789") != "" {
			return
		}
		if larger := wait(digits + "0"); larger < got {
			t.Fatalf("Retry-After %q waits %v, but the larger %q only %v", v, got, digits+"0", larger)
		}
	})
}
