package load

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"exaresil/internal/serve"
)

// The outcome classes an Event can record. OutcomeGenerated marks events
// written by the generator before any server saw them; the rest mirror
// the Sample classes the targets report.
const (
	OutcomeGenerated = "generated"
	OutcomeOK        = "ok"
	OutcomeRejected  = "rejected" // 429 backpressure
	OutcomeError     = "error"    // transport failure, 5xx, or a failed job
)

// Event is one line of a trace: a request, when it arrived, and (for
// recorded traces) how it went.
type Event struct {
	// Offset is the arrival offset in seconds from the stream start.
	// Offsets are non-decreasing within a trace.
	Offset float64 `json:"offset_s"`
	// Spec is the submitted request.
	Spec serve.Spec `json:"spec"`
	// Outcome classifies the result (OutcomeGenerated for unplayed
	// traces).
	Outcome string `json:"outcome"`
	// Cache is the server's cache disposition when known (hit, miss,
	// joined).
	Cache string `json:"cache,omitempty"`
	// Latency is the observed submit-to-terminal latency in seconds; zero
	// for generated or rejected events.
	Latency float64 `json:"latency_s,omitempty"`
}

// traceHeader is the first line of every trace file.
type traceHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	Seed    uint64 `json:"seed,omitempty"`
	Note    string `json:"note,omitempty"`
}

const (
	traceFormat  = "exaload-trace"
	traceVersion = 1
)

// Trace is a recorded (or generated) request stream.
type Trace struct {
	// Seed is the generator seed that produced the stream, when known.
	Seed uint64
	// Note is a free-form provenance line (profile DSL, target address).
	Note string
	// Events are the stream in arrival order.
	Events []Event
}

// Arrivals converts the trace back into a replayable arrival schedule.
func (t *Trace) Arrivals() []Arrival {
	out := make([]Arrival, len(t.Events))
	for i, e := range t.Events {
		out[i] = Arrival{At: e.Offset, Spec: e.Spec}
	}
	return out
}

// WriteTrace writes the trace as versioned JSONL: one header line, then
// one line per event. The encoding is canonical — reading it back and
// rewriting it reproduces the bytes — so traces diff and digest cleanly.
func WriteTrace(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(traceHeader{Format: traceFormat, Version: traceVersion, Seed: t.Seed, Note: t.Note}); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for i, e := range t.Events {
		if err := enc.Encode(e); err != nil {
			return fmt.Errorf("trace: write event %d: %w", i+1, err)
		}
	}
	return bw.Flush()
}

// ReadTrace parses a JSONL trace. Every malformed condition is an error
// naming the 1-based line: truncated or non-JSON lines, a missing or
// mismatched header, blank interior lines, and offsets that run
// backwards. Every line decodes strictly (serve.DecodeStrict): a key in
// the wrong case, an unknown or repeated key, or trailing data is an
// error, and each event's spec must pass serve.ParseSpec. Nothing is
// silently skipped — a trace either replays exactly or not at all.
func ReadTrace(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	line := 0
	readLine := func() (string, bool, error) {
		s, err := br.ReadString('\n')
		if err == io.EOF {
			if s == "" {
				return "", false, nil
			}
			// A final line without its newline: the file was truncated
			// mid-write; refuse rather than guess.
			return "", false, fmt.Errorf("trace: line %d: truncated (no trailing newline)", line+1)
		}
		if err != nil {
			return "", false, fmt.Errorf("trace: line %d: %w", line+1, err)
		}
		line++
		return strings.TrimSuffix(s, "\n"), true, nil
	}
	decode := func(s string, fields map[string]any) error {
		if err := serve.DecodeStrict(strings.NewReader(s), fields); err != nil {
			return fmt.Errorf("trace: line %d: %v", line, err)
		}
		return nil
	}

	hdrLine, ok, err := readLine()
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("trace: empty input (no header line)")
	}
	var hdr traceHeader
	if err := decode(hdrLine, map[string]any{
		"format": &hdr.Format, "version": &hdr.Version, "seed": &hdr.Seed, "note": &hdr.Note,
	}); err != nil {
		return nil, err
	}
	if hdr.Format != traceFormat {
		return nil, fmt.Errorf("trace: line 1: format %q is not %q", hdr.Format, traceFormat)
	}
	if hdr.Version != traceVersion {
		return nil, fmt.Errorf("trace: line 1: version %d unsupported (want %d)", hdr.Version, traceVersion)
	}

	t := &Trace{Seed: hdr.Seed, Note: hdr.Note}
	prev := 0.0
	for {
		s, ok, err := readLine()
		if err != nil {
			return nil, err
		}
		if !ok {
			return t, nil
		}
		if strings.TrimSpace(s) == "" {
			return nil, fmt.Errorf("trace: line %d: blank line inside trace", line)
		}
		var e Event
		var spec json.RawMessage
		if err := decode(s, map[string]any{
			"offset_s": &e.Offset, "spec": &spec, "outcome": &e.Outcome, "cache": &e.Cache, "latency_s": &e.Latency,
		}); err != nil {
			return nil, err
		}
		if e.Offset < prev {
			return nil, fmt.Errorf("trace: line %d: offset %v runs backwards (previous %v)", line, e.Offset, prev)
		}
		prev = e.Offset
		if spec == nil {
			return nil, fmt.Errorf("trace: line %d: event has no spec", line)
		}
		if e.Spec, err = serve.ParseSpec(bytes.NewReader(spec)); err != nil {
			return nil, fmt.Errorf("trace: line %d: %v", line, err)
		}
		switch e.Outcome {
		case OutcomeGenerated, OutcomeOK, OutcomeRejected, OutcomeError:
		default:
			return nil, fmt.Errorf("trace: line %d: unknown outcome %q", line, e.Outcome)
		}
		t.Events = append(t.Events, e)
	}
}

// GeneratedTrace wraps an arrival schedule as an unplayed trace.
func GeneratedTrace(arrivals []Arrival, seed uint64, note string) *Trace {
	t := &Trace{Seed: seed, Note: note, Events: make([]Event, len(arrivals))}
	for i, a := range arrivals {
		t.Events[i] = Event{Offset: a.At, Spec: a.Spec, Outcome: OutcomeGenerated}
	}
	return t
}

// RecordedTrace zips an arrival schedule with the samples a target
// reported for it, producing a replayable record of what actually
// happened.
func RecordedTrace(arrivals []Arrival, samples []Sample, seed uint64, note string) (*Trace, error) {
	if len(arrivals) != len(samples) {
		return nil, fmt.Errorf("trace: %d arrivals but %d samples", len(arrivals), len(samples))
	}
	t := &Trace{Seed: seed, Note: note, Events: make([]Event, len(arrivals))}
	for i, a := range arrivals {
		t.Events[i] = Event{
			Offset:  a.At,
			Spec:    a.Spec,
			Outcome: samples[i].Class,
			Cache:   samples[i].Cache,
			Latency: samples[i].Latency,
		}
	}
	return t, nil
}
