package load

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"exaresil/internal/serve"
)

func sampleTrace() *Trace {
	return &Trace{
		Seed: 42,
		Note: "profile=constant:rate=5,dur=30",
		Events: []Event{
			{Offset: 0.25, Spec: serve.Spec{Exhibit: "fig1", Trials: 2, Seed: 1}, Outcome: OutcomeGenerated},
			{Offset: 0.75, Spec: serve.Spec{Exhibit: "fig1", Trials: 2, Seed: 3}, Outcome: OutcomeOK, Cache: "miss", Latency: 0.8},
			{Offset: 0.75, Spec: serve.Spec{Exhibit: "fig1", Trials: 2, Seed: 3}, Outcome: OutcomeOK, Cache: "hit"},
			{Offset: 1.5, Spec: serve.Spec{Exhibit: "fig1", Trials: 2, Seed: 9}, Outcome: OutcomeRejected},
		},
	}
}

// TestTraceRoundTrip: write → read → write reproduces both the structure
// and the bytes (the canonical-encoding property digests rely on).
func TestTraceRoundTrip(t *testing.T) {
	orig := sampleTrace()
	var buf1 bytes.Buffer
	if err := WriteTrace(&buf1, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(bytes.NewReader(buf1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != orig.Seed || got.Note != orig.Note {
		t.Errorf("header changed: seed %d note %q, want %d %q", got.Seed, got.Note, orig.Seed, orig.Note)
	}
	if !reflect.DeepEqual(got.Events, orig.Events) {
		t.Errorf("events changed across round trip:\n got %+v\nwant %+v", got.Events, orig.Events)
	}
	var buf2 bytes.Buffer
	if err := WriteTrace(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Error("re-encoding a read trace changed the bytes — encoding is not canonical")
	}
}

// TestTraceGeneratedRoundTrip: a generated stream survives trace encoding
// with identical spec keys and inter-arrival gaps.
func TestTraceGeneratedRoundTrip(t *testing.T) {
	arrivals, err := Generate(testGenSpec(5, 6, 20))
	if err != nil {
		t.Fatal(err)
	}
	tr := GeneratedTrace(arrivals, 5, "test")
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replay := back.Arrivals()
	if len(replay) != len(arrivals) {
		t.Fatalf("replay has %d arrivals, want %d", len(replay), len(arrivals))
	}
	for i := range arrivals {
		if replay[i].Spec.Key() != arrivals[i].Spec.Key() {
			t.Fatalf("arrival %d spec key changed: %s vs %s", i, replay[i].Spec.Key(), arrivals[i].Spec.Key())
		}
		if replay[i].At != arrivals[i].At {
			t.Fatalf("arrival %d offset changed: %v vs %v", i, replay[i].At, arrivals[i].At)
		}
	}
}

func TestRecordedTrace(t *testing.T) {
	arrivals, err := Generate(testGenSpec(5, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	samples := make([]Sample, len(arrivals))
	for i := range samples {
		samples[i] = Sample{Class: OutcomeOK, Cache: "miss", Latency: 0.5}
	}
	tr, err := RecordedTrace(arrivals, samples, 5, "test")
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != len(arrivals) {
		t.Fatalf("%d events, want %d", len(tr.Events), len(arrivals))
	}
	if _, err := RecordedTrace(arrivals, samples[:len(samples)-1], 5, "test"); err == nil {
		t.Error("mismatched arrival/sample lengths must error")
	}
}

// TestReadTraceRejects: every malformed condition errors, names the
// 1-based line, and nothing is silently skipped.
func TestReadTraceRejects(t *testing.T) {
	header := `{"format":"exaload-trace","version":1,"seed":1}` + "\n"
	event := `{"offset_s":1,"spec":{"exhibit":"fig1","trials":2,"seed":1},"outcome":"generated"}` + "\n"
	cases := []struct {
		name  string
		input string
		want  string // substring the error must carry
	}{
		{"empty input", "", "empty input"},
		{"wrong format", `{"format":"other","version":1}` + "\n", `format "other"`},
		{"wrong version", `{"format":"exaload-trace","version":9}` + "\n", "version 9 unsupported"},
		{"header unknown field", `{"format":"exaload-trace","version":1,"extra":1}` + "\n", `line 1`},
		{"truncated header", `{"format":"exaload-trace","version":1}`, "line 1: truncated"},
		{"truncated event", header + `{"offset_s":1`, "line 2: truncated"},
		{"event unknown field", header + `{"offset_s":1,"spec":{"exhibit":"fig1"},"outcome":"ok","surprise":true}` + "\n", `line 2`},
		{"glued records", header + strings.TrimSuffix(event, "\n") + strings.TrimSuffix(event, "\n") + "\n", "line 2: trailing data"},
		{"blank interior line", header + "\n" + event, "line 2: blank line"},
		{"non-JSON line", header + "not json\n", "line 2"},
		{"backwards offsets", header + event + `{"offset_s":0.5,"spec":{"exhibit":"fig1"},"outcome":"ok"}` + "\n", "line 3: offset 0.5 runs backwards"},
		{"missing spec", header + `{"offset_s":1,"outcome":"ok"}` + "\n", "line 2: event has no spec"},
		{"spec without exhibit", header + `{"offset_s":1,"spec":{},"outcome":"ok"}` + "\n", "line 2: spec: exhibit is required"},
		{"header key case", `{"FORMAT":"exaload-trace","Version":1}` + "\n", `line 1: field "FORMAT" must be spelled "format"`},
		{"header repeated key", `{"format":"exaload-trace","version":1,"version":1}` + "\n", `line 1: duplicate field "version"`},
		{"event key case", header + `{"Offset_s":1,"spec":{"exhibit":"fig1"},"outcome":"ok"}` + "\n", `line 2: field "Offset_s" must be spelled "offset_s"`},
		{"spec key case", header + `{"offset_s":1,"spec":{"EXHIBIT":"fig1"},"outcome":"ok"}` + "\n", `line 2: decode spec: field "EXHIBIT" must be spelled "exhibit"`},
		{"spec unknown exhibit", header + `{"offset_s":1,"spec":{"exhibit":"fig9"},"outcome":"ok"}` + "\n", `line 2: spec: unknown exhibit "fig9"`},
		{"spec negative trials", header + `{"offset_s":1,"spec":{"exhibit":"fig1","trials":-5},"outcome":"ok"}` + "\n", "line 2: spec: trials must be non-negative"},
		{"unknown outcome", header + `{"offset_s":1,"spec":{"exhibit":"fig1"},"outcome":"mystery"}` + "\n", `line 2: unknown outcome "mystery"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadTrace(strings.NewReader(c.input))
			if err == nil {
				t.Fatalf("want an error containing %q, got nil", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestReadTraceEqualOffsets: simultaneous arrivals (equal offsets) are
// legal — only strictly decreasing offsets are torn.
func TestReadTraceEqualOffsets(t *testing.T) {
	input := `{"format":"exaload-trace","version":1}` + "\n" +
		`{"offset_s":1,"spec":{"exhibit":"fig1"},"outcome":"ok"}` + "\n" +
		`{"offset_s":1,"spec":{"exhibit":"fig1"},"outcome":"ok"}` + "\n"
	tr, err := ReadTrace(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 2 {
		t.Fatalf("%d events, want 2", len(tr.Events))
	}
}
