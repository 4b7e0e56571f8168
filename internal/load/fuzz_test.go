package load

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadTrace: ReadTrace never panics, and every trace it accepts is a
// fixed point of WriteTrace∘ReadTrace: rewriting it and reading that back
// gives the same Trace, and writing the result again gives the same bytes.
// The seeds are a valid trace and five inputs the strict decoding refuses.
func FuzzReadTrace(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteTrace(&valid, sampleTrace()); err != nil {
		f.Fatal(err)
	}
	header := `{"format":"exaload-trace","version":1}` + "\n"
	for _, seed := range []string{
		valid.String(),
		`{"FORMAT":"exaload-trace","Version":1}` + "\n",
		`{"format":"exaload-trace","version":1,"version":1}` + "\n",
		header + `{"offset_s":1,"spec":{"EXHIBIT":"fig1"},"outcome":"ok"}` + "\n",
		header + `{"offset_s":1,"spec":{"exhibit":"fig9"},"outcome":"ok"}` + "\n",
		header + `{"offset_s":1,"spec":{"exhibit":"fig1","trials":-5},"outcome":"ok"}` + "\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		tr, err := ReadTrace(strings.NewReader(raw))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := WriteTrace(&first, tr); err != nil {
			t.Fatalf("accepted trace does not write: %v", err)
		}
		back, err := ReadTrace(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("rewritten trace rejected: %v\n%s", err, first.Bytes())
		}
		if !reflect.DeepEqual(back, tr) {
			t.Fatalf("round trip changed the trace:\n got %+v\nwant %+v", back, tr)
		}
		var second bytes.Buffer
		if err := WriteTrace(&second, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("rewriting is not a fixed point:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}

// FuzzReadMetrics: ReadMetrics never panics, and no sum wraps: every
// name{key="value"} sum covers a subset of the samples its bare name sums,
// so it is never larger, however huge, negative or malformed the samples.
func FuzzReadMetrics(f *testing.F) {
	for _, seed := range []string{
		"# TYPE c counter\nc{outcome=\"hit\",replica=\"0\"} 3\nc{outcome=\"miss\"} 2\nc 4\n",
		"c 1e300\nc 1e300\nc{a=\"b\"} 18446744073709551615\n",
		"c -5\nc NaN\nc +Inf\nc{} 1\n",
		"c{a=1 2\nc} 3\n{a=\"b\"} 4\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		m, err := ReadMetrics(strings.NewReader(raw))
		if err != nil {
			return
		}
		for key, sum := range m {
			if i := strings.IndexByte(key, '{'); i >= 0 && m[key[:i]] < sum {
				t.Fatalf("%s sums to %d, more than its series %s's %d", key, sum, key[:i], m[key[:i]])
			}
		}
	})
}
