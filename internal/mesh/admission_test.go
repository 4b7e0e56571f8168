package mesh

import (
	"testing"
	"time"
)

// TestTokenBucketAdmission: burst admits immediately, exhaustion rejects
// with a refill-based retry hint, and elapsed time restores tokens. The
// policy is a pure function of the passed clock, so no sleeping.
func TestTokenBucketAdmission(t *testing.T) {
	now := time.Unix(1000, 0)
	tb := TokenBucket(1, 2) // 1/s, burst 2

	if ok, _ := tb.Admit(now); !ok {
		t.Fatal("first admit within burst rejected")
	}
	if ok, _ := tb.Admit(now); !ok {
		t.Fatal("second admit within burst rejected")
	}
	ok, retry := tb.Admit(now)
	if ok {
		t.Fatal("admit past burst accepted")
	}
	if retry < 900*time.Millisecond || retry > 1100*time.Millisecond {
		t.Fatalf("retry hint %s, want ~1s (one token at 1/s)", retry)
	}
	if ok, _ := tb.Admit(now.Add(1500 * time.Millisecond)); !ok {
		t.Fatal("admit after refill rejected")
	}
}

// TestTokenBucketClampsBadParams: nonsensical rate/burst degrade to a
// minimal working bucket instead of one that admits nothing or panics.
func TestTokenBucketClampsBadParams(t *testing.T) {
	tb := TokenBucket(-3, 0)
	if ok, _ := tb.Admit(time.Unix(0, 0)); !ok {
		t.Fatal("clamped bucket rejected its first submission")
	}
}

// TestFixedPolicies: the two degenerate policies and the flag parser.
func TestFixedPolicies(t *testing.T) {
	if ok, _ := AlwaysAdmit().Admit(time.Unix(0, 0)); !ok {
		t.Fatal("AlwaysAdmit rejected")
	}
	ok, retry := RejectAll().Admit(time.Unix(0, 0))
	if ok {
		t.Fatal("RejectAll admitted")
	}
	if retry < time.Second {
		t.Fatalf("RejectAll retry hint %s below the 1s floor", retry)
	}

	for _, name := range []string{"", "always", "reject-all", "token-bucket"} {
		if _, err := ParseAdmission(name, 5, 10); err != nil {
			t.Fatalf("ParseAdmission(%q): %v", name, err)
		}
	}
	if _, err := ParseAdmission("nope", 5, 10); err == nil {
		t.Fatal("ParseAdmission accepted an unknown policy")
	}
}
