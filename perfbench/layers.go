package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"exaresil/internal/obs"
)

// promSample is one series line of a Prometheus text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

type promText []promSample

// parseProm reads the text exposition the mesh serves on /metrics. Label
// values in this repository never contain commas, quotes or braces, which
// keeps the parser to a split.
func parseProm(text string) (promText, error) {
	var out promText
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("parse metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("parse metrics: %q: %w", line, err)
		}
		s := promSample{name: line[:sp], labels: map[string]string{}, value: v}
		if i := strings.IndexByte(s.name, '{'); i >= 0 {
			for _, kv := range strings.Split(strings.TrimSuffix(s.name[i+1:], "}"), ",") {
				k, val, _ := strings.Cut(kv, "=")
				s.labels[k] = strings.Trim(val, `"`)
			}
			s.name = s.name[:i]
		}
		out = append(out, s)
	}
	return out, nil
}

// sum adds every series of name whose labels include the given pairs
// ("key", "value", ...).
func (p promText) sum(name string, kv ...string) float64 {
	total := 0.0
	for _, s := range p {
		if s.name == name && hasLabels(s.labels, kv) {
			total += s.value
		}
	}
	return total
}

// byLabel sums name per value of one label.
func (p promText) byLabel(name, label string) map[string]float64 {
	out := map[string]float64{}
	for _, s := range p {
		if s.name == name {
			out[s.labels[label]] += s.value
		}
	}
	return out
}

func hasLabels(labels map[string]string, kv []string) bool {
	for i := 0; i+1 < len(kv); i += 2 {
		if labels[kv[i]] != kv[i+1] {
			return false
		}
	}
	return true
}

// regText renders an obs registry as promText so one reader serves both
// the in-process registries and the scraped ones.
func regText(r *obs.Registry) promText {
	var out promText
	for _, s := range r.Snapshot() {
		out = append(out, promSample{name: s.Name, labels: s.Labels, value: s.Value})
	}
	return out
}

// simCountNames are the simulation counts that must repeat exactly between
// two runs of the same inputs: they prove a faster build did the same
// simulation.
var simCountNames = []string{
	"des.events_dispatched", "des.events_canceled", "des.heap_depth_peak",
	"resilience.runs", "resilience.failures", "resilience.rollbacks",
	"cluster.apps_started", "cluster.mapper_invocations", "selection.probes",
}

// simLayers reads the simulation layers' counters from the registry the
// experiments reported to.
func simLayers(t promText) map[string]float64 {
	resolved := t.sum("exaresil_cluster_apps_total")
	var minutes, rework float64
	for _, s := range t {
		if s.name == "exaresil_resilience_time_minutes_total" {
			minutes += s.value
			if s.labels["phase"] == "rework" {
				rework += s.value
			}
		}
	}
	hits := t.sum("exaresil_selection_schedule_cache_hits_total")
	misses := t.sum("exaresil_selection_schedule_cache_misses_total")
	return map[string]float64{
		"des.events_dispatched":              t.sum("exaresil_des_events_dispatched_total"),
		"des.events_canceled":                t.sum("exaresil_des_events_canceled_total"),
		"des.heap_depth_peak":                t.sum("exaresil_des_heap_depth_peak"),
		"resilience.runs":                    t.sum("exaresil_resilience_runs_total"),
		"resilience.failures":                t.sum("exaresil_resilience_failures_total"),
		"resilience.rollbacks":               t.sum("exaresil_resilience_rollbacks_total"),
		"resilience.rework_share":            share(rework, minutes),
		"cluster.apps_started":               t.sum("exaresil_cluster_apps_started_total"),
		"cluster.mapper_invocations":         t.sum("exaresil_cluster_mapper_invocations_total"),
		"cluster.dropped_share":              share(resolved-t.sum("exaresil_cluster_apps_total", "outcome", "completed"), resolved),
		"selection.probes":                   t.sum("exaresil_selection_probes_total"),
		"selection.schedule_cache_hit_share": share(hits, hits+misses),
	}
}

// sameCounts lists the simulation counts that differ between two reads.
func sameCounts(a, b map[string]float64) []string {
	var diff []string
	for _, n := range simCountNames {
		if a[n] != b[n] {
			diff = append(diff, fmt.Sprintf("%s: %v vs %v", n, a[n], b[n]))
		}
	}
	return diff
}

// minus returns the change from before to p: counters (the _total series)
// are differenced per series, other series keep their current value.
func (p promText) minus(before promText) promText {
	prev := map[string]float64{}
	for _, s := range before {
		prev[s.key()] = s.value
	}
	out := make(promText, len(p))
	for i, s := range p {
		out[i] = s
		if strings.HasSuffix(s.name, "_total") {
			out[i].value -= prev[s.key()]
		}
	}
	return out
}

// key identifies a series by name and sorted labels.
func (s promSample) key() string {
	keys := make([]string, 0, len(s.labels))
	for k := range s.labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(s.name)
	for _, k := range keys {
		b.WriteString("|" + k + "=" + s.labels[k])
	}
	return b.String()
}
