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
