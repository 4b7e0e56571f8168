package serve

import (
	"encoding/json"
	"strings"
	"testing"
)

// FuzzParseSpec: ParseSpec never panics, and any spec it accepts is a
// fixed point of the API's own encoding — re-encoded and parsed again, it
// names the same cache key (a poll response's echoed spec, resubmitted,
// must hit the cache).
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		`{"exhibit":"fig1"}`,
		`{"exhibit":"fig4","trials":3,"patterns":2,"arrivals":10,"seed":12345}`,
		` {"seed":7, "exhibit":"ext-tau"} `,
		`{"exhibit":"fig1","Exhibit":"fig4"}`,
		`{"EXHIBIT":"fig4"}`,
		`{"exhibit":"fig1","exhibit":"fig4"}`,
		`{"exhibit":"fig1"}{"exhibit":"fig4"}`,
		`{"exhibit":"fig1","trials":null}`,
		`[1]`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		s, err := ParseSpec(strings.NewReader(raw))
		if err != nil {
			return
		}
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal accepted spec %+v: %v", s, err)
		}
		back, err := ParseSpec(strings.NewReader(string(enc)))
		if err != nil {
			t.Fatalf("%q accepted as %+v, but its encoding %s is rejected: %v", raw, s, enc, err)
		}
		if back.Key() != s.Key() {
			t.Fatalf("%q: key %s, re-encoded %s parses to key %s", raw, s.Key(), enc, back.Key())
		}
	})
}
