package mesh

import "testing"

// FuzzParseJobID: every id parseJobID accepts formats back to the same
// string, so a job id has exactly one spelling.
func FuzzParseJobID(f *testing.F) {
	for _, s := range []string{
		"r0.0-j00000001", "r2.13-j00000042", "r1.0-j123456789",
		"r+0.1-j00000001", "r00.1-j00000001", "r0.+1-j00000001", "r0.1-x", "r1.0-j",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		id, ok := parseJobID(s)
		if !ok {
			return
		}
		if got := id.String(); got != s {
			t.Fatalf("parseJobID(%q) = %+v, which formats as %q", s, id, got)
		}
	})
}
