package resilience

import (
	"fmt"

	"exaresil/internal/failures"
	"exaresil/internal/units"
)

// TraceKind classifies execution trace events.
type TraceKind int

// The observable state transitions of a simulated execution; they mirror
// the event taxonomy of Section III-A.
const (
	// TraceStart: the application began executing.
	TraceStart TraceKind = iota
	// TraceCheckpointStart and TraceCheckpointEnd bracket a blocking
	// checkpoint (Level says which).
	TraceCheckpointStart
	TraceCheckpointEnd
	// TraceFailure: a failure struck the application (Severity says how
	// hard); Rollback reports whether it forced a restore.
	TraceFailure
	// TraceRestartEnd: a restore finished and computation resumed.
	TraceRestartEnd
	// TraceComplete: the application finished all of its work.
	TraceComplete
)

// String names the kind.
func (k TraceKind) String() string {
	switch k {
	case TraceStart:
		return "start"
	case TraceCheckpointStart:
		return "checkpoint-start"
	case TraceCheckpointEnd:
		return "checkpoint-end"
	case TraceFailure:
		return "failure"
	case TraceRestartEnd:
		return "restart-end"
	case TraceComplete:
		return "complete"
	default:
		return fmt.Sprintf("TraceKind(%d)", int(k))
	}
}

// TraceEvent is one observed state transition.
type TraceEvent struct {
	// Time is the simulation time of the transition.
	Time units.Duration
	// Kind classifies it.
	Kind TraceKind
	// Progress is the application's completed work at that moment.
	Progress units.Duration
	// Level is the checkpoint level for checkpoint and restart events.
	Level int
	// Severity is set for failure events.
	Severity failures.Severity
	// Rollback reports, for failure events, whether the failure forced a
	// restore (redundancy absorbs some failures).
	Rollback bool
}

// String renders the event for timelines.
func (e TraceEvent) String() string {
	switch e.Kind {
	case TraceCheckpointStart, TraceCheckpointEnd, TraceRestartEnd:
		return fmt.Sprintf("%-10s %-17s L%d progress=%s", e.Time, e.Kind, e.Level, e.Progress)
	case TraceFailure:
		verdict := "absorbed"
		if e.Rollback {
			verdict = "rollback"
		}
		return fmt.Sprintf("%-10s %-17s %s (%s) progress=%s", e.Time, e.Kind, e.Severity, verdict, e.Progress)
	default:
		return fmt.Sprintf("%-10s %-17s progress=%s", e.Time, e.Kind, e.Progress)
	}
}

// Observer receives trace events during a run.
type Observer func(TraceEvent)
