// Package trace collects, summarizes, and serializes execution traces of
// simulated application runs. A trace is the sequence of state transitions
// a resilience executor reports through its Observer hook; this package
// turns it into timelines for debugging, JSON Lines files for external
// analysis, and phase summaries for reports.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"exaresil/internal/resilience"
	"exaresil/internal/units"
)

// Recorder accumulates trace events. Make its Observe method the Observer
// of the resilience.Runtime that runs the executor. Recorders are not safe
// for concurrent use; record one run at a time.
type Recorder struct {
	events []resilience.TraceEvent
}

// Observe appends one event; it is the resilience.Observer callback.
func (r *Recorder) Observe(ev resilience.TraceEvent) {
	r.events = append(r.events, ev)
}

// Reset clears the recorder for another run.
func (r *Recorder) Reset() { r.events = r.events[:0] }

// Events returns the recorded sequence.
func (r *Recorder) Events() []resilience.TraceEvent { return r.events }

// Len reports the number of recorded events.
func (r *Recorder) Len() int { return len(r.events) }

// Summary aggregates a trace.
type Summary struct {
	// Events is the total event count.
	Events int
	// Checkpoints counts completed checkpoints by level (index 1-3).
	Checkpoints [4]int
	// Failures and Rollbacks count failure events and those that forced
	// a restore.
	Failures, Rollbacks int
	// Restores counts completed restarts by the checkpoint level restored
	// from. Index 0 counts from-scratch relaunches: restarts after a
	// failure that left no surviving checkpoint, which read nothing and
	// resume at zero progress.
	Restores [4]int
	// Completed reports whether the trace ends in completion.
	Completed bool
	// Span is the time from the first to the last event.
	Span units.Duration
}

// Summarize aggregates the recorded trace.
func (r *Recorder) Summarize() Summary {
	var s Summary
	s.Events = len(r.events)
	for _, ev := range r.events {
		switch ev.Kind {
		case resilience.TraceCheckpointEnd:
			s.Checkpoints[clampLevel(ev.Level)]++
		case resilience.TraceFailure:
			s.Failures++
			if ev.Rollback {
				s.Rollbacks++
			}
		case resilience.TraceRestartEnd:
			s.Restores[clampLevel(ev.Level)]++
		case resilience.TraceComplete:
			s.Completed = true
		}
	}
	if n := len(r.events); n > 0 {
		s.Span = r.events[n-1].Time - r.events[0].Time
	}
	return s
}

func clampLevel(level int) int {
	if level < 0 {
		return 0
	}
	if level > 3 {
		return 3
	}
	return level
}

// String renders the summary.
func (s Summary) String() string {
	status := "incomplete"
	if s.Completed {
		status = "completed"
	}
	return fmt.Sprintf("%d events over %s: %s, %d failures (%d rollbacks), checkpoints L1=%d L2=%d L3=%d",
		s.Events, s.Span, status, s.Failures, s.Rollbacks,
		s.Checkpoints[1], s.Checkpoints[2], s.Checkpoints[3])
}

// jsonEvent is the serialized form of one event, with stable field names
// for external tooling.
type jsonEvent struct {
	TimeMinutes float64 `json:"t_min"`
	Kind        string  `json:"kind"`
	ProgressMin float64 `json:"progress_min"`
	Level       int     `json:"level,omitempty"`
	Severity    int     `json:"severity,omitempty"`
	Rollback    bool    `json:"rollback,omitempty"`
}

// WriteJSONL serializes the trace as JSON Lines, one event per line.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range r.events {
		je := jsonEvent{
			TimeMinutes: ev.Time.Minutes(),
			Kind:        ev.Kind.String(),
			ProgressMin: ev.Progress.Minutes(),
			Level:       ev.Level,
			Severity:    int(ev.Severity),
			Rollback:    ev.Rollback,
		}
		if err := enc.Encode(je); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteTimeline renders a human-readable timeline. When limit is positive
// and the trace is longer, the middle is elided.
func (r *Recorder) WriteTimeline(w io.Writer, limit int) error {
	events := r.events
	elided := 0
	if limit > 0 && len(events) > limit {
		head := limit / 2
		tail := limit - head
		elided = len(events) - limit
		merged := make([]resilience.TraceEvent, 0, limit)
		merged = append(merged, events[:head]...)
		merged = append(merged, events[len(events)-tail:]...)
		events = merged
	}
	bw := bufio.NewWriter(w)
	half := len(events) / 2
	for i, ev := range events {
		if elided > 0 && i == half {
			fmt.Fprintf(bw, "... %d events elided ...\n", elided)
		}
		fmt.Fprintln(bw, ev)
	}
	return bw.Flush()
}
