package mesh

import (
	"fmt"
	"reflect"
	"testing"
)

func liveSet(idxs ...int) []Candidate {
	out := make([]Candidate, len(idxs))
	for i, idx := range idxs {
		out[i] = Candidate{Idx: idx}
	}
	return out
}

// TestAffinityStabilityAndMinimalRemap: the consistent-hash router gives
// every key a stable owner, returns a full permutation of the live set,
// and a replica's death remaps only the keys that replica owned.
func TestAffinityStabilityAndMinimalRemap(t *testing.T) {
	r := NewAffinityRouter(3)
	all := liveSet(0, 1, 2)
	owner := map[string]int{}
	counts := map[int]int{}
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("spec-key-%d", i)
		ord := r.Order(key, all)
		if len(ord) != 3 {
			t.Fatalf("Order(%q) returned %d candidates, want 3", key, len(ord))
		}
		seen := map[int]bool{}
		for _, idx := range ord {
			seen[idx] = true
		}
		if len(seen) != 3 {
			t.Fatalf("Order(%q) = %v is not a permutation", key, ord)
		}
		if again := r.Order(key, all); !reflect.DeepEqual(again, ord) {
			t.Fatalf("Order(%q) unstable: %v then %v", key, ord, again)
		}
		owner[key] = ord[0]
		counts[ord[0]]++
	}
	// The ring should spread ownership across all replicas.
	for idx := 0; idx < 3; idx++ {
		if counts[idx] == 0 {
			t.Fatalf("replica %d owns no keys: %v", idx, counts)
		}
	}
	// Kill replica 1: keys owned by 0 and 2 must keep their owner.
	survivors := liveSet(0, 2)
	moved := 0
	for key, own := range owner {
		head := r.Order(key, survivors)[0]
		if own == 1 {
			moved++
			continue
		}
		if head != own {
			t.Fatalf("key %q remapped from %d to %d though its owner survived", key, own, head)
		}
	}
	if moved == 0 {
		t.Fatal("replica 1 owned no keys; remap test is vacuous")
	}
}

// TestLeastLoadedOrder: strictly by queued+inflight, ties by index.
func TestLeastLoadedOrder(t *testing.T) {
	r := NewLeastLoadedRouter()
	live := []Candidate{
		{Idx: 0, Queued: 4, Inflight: 1},
		{Idx: 1, Queued: 0, Inflight: 1},
		{Idx: 2, Queued: 1, Inflight: 0},
		{Idx: 3, Queued: 1, Inflight: 0},
	}
	got := r.Order("any", live)
	want := []int{1, 2, 3, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("least-loaded order = %v, want %v", got, want)
	}
}

// TestTwoChoiceOrder: deterministic for a seed, covers every live
// replica, and puts the less loaded of its two samples first.
func TestTwoChoiceOrder(t *testing.T) {
	live := []Candidate{
		{Idx: 0, Queued: 9},
		{Idx: 1, Queued: 0},
		{Idx: 2, Queued: 5},
	}
	a := NewTwoChoiceRouter(7)
	b := NewTwoChoiceRouter(7)
	for i := 0; i < 50; i++ {
		oa := a.Order("k", live)
		ob := b.Order("k", live)
		if !reflect.DeepEqual(oa, ob) {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, oa, ob)
		}
		if len(oa) != 3 {
			t.Fatalf("order %v does not cover the live set", oa)
		}
		loadOf := map[int]int{0: 9, 1: 0, 2: 5}
		if loadOf[oa[0]] > loadOf[oa[1]] {
			t.Fatalf("two-choice put the more loaded sample first: %v", oa)
		}
	}
	// Single candidate degenerates sanely.
	if got := a.Order("k", liveSet(2)); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("single-candidate order = %v", got)
	}
}

// TestParseRouter: flag vocabulary.
func TestParseRouter(t *testing.T) {
	for _, name := range []string{"", "affinity", "least-loaded", "random2"} {
		if _, err := ParseRouter(name, 3, 1); err != nil {
			t.Fatalf("ParseRouter(%q): %v", name, err)
		}
	}
	if _, err := ParseRouter("nope", 3, 1); err == nil {
		t.Fatal("ParseRouter accepted an unknown router")
	}
}

// TestParseJobID: the replica-identity codec on job ids accepts exactly
// the ids a replica mints.
func TestParseJobID(t *testing.T) {
	cases := []struct {
		id   string
		want jobID
		ok   bool
	}{
		{"r0.0-j00000001", jobID{0, 0, 1}, true},
		{"r2.13-j00000042", jobID{2, 13, 42}, true},
		{"r1.0-j123456789", jobID{1, 0, 123456789}, true},
		{"j00000001", jobID{}, false},
		{"r-j00000001", jobID{}, false},
		{"r1.j1", jobID{}, false},
		{"rx.y-j1", jobID{}, false},
		{"", jobID{}, false},
		{"r+0.1-j00000001", jobID{}, false}, // sign
		{"r00.1-j00000001", jobID{}, false}, // leading zero
		{"r0.+1-j00000001", jobID{}, false},
		{"r-1.0-j00000001", jobID{}, false},
		{"r0.1-x", jobID{}, false},  // no sequence
		{"r1.0-j", jobID{}, false},  // empty sequence
		{"r1.0-j1", jobID{}, false}, // unpadded sequence
		{"r1.0-j000000001", jobID{}, false},
		{"r1.0-j00000001x", jobID{}, false},
		{"r1.0.2-j00000001", jobID{}, false},
	}
	for _, tc := range cases {
		got, ok := parseJobID(tc.id)
		if ok != tc.ok || got != tc.want {
			t.Fatalf("parseJobID(%q) = (%+v, %v), want (%+v, %v)", tc.id, got, ok, tc.want, tc.ok)
		}
		if ok && got.String() != tc.id {
			t.Fatalf("parseJobID(%q) formats back as %q", tc.id, got.String())
		}
	}
}
