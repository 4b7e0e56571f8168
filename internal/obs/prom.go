package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// famView is one family frozen for rendering: its (immutable) metadata
// and its series ordered by label signature.
type famView struct {
	*family
	series []metric
}

// sortedFamilies freezes the family table in name order, with each
// family's series ordered by label signature, so the exposition is
// deterministic regardless of registration or goroutine order. The series
// lists are copied under the registry lock: a registration racing a scrape
// must not touch a map the scrape is iterating.
func (r *Registry) sortedFamilies() []famView {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fams := make([]famView, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, famView{f, f.sortedSeries()})
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// sortedSeries orders one family's series by label signature.
func (f *family) sortedSeries() []metric {
	out := make([]metric, 0, len(f.bySig))
	sigs := make([]string, 0, len(f.bySig))
	for sig := range f.bySig {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	for _, sig := range sigs {
		out = append(out, f.bySig[sig])
	}
	return out
}

// escapeLabel escapes a label value for the text exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// promLabels renders label sets as {a="x",b="y"}, in argument order (the
// histogram le label goes last); empty sets render as nothing.
func promLabels(sets ...[]Label) string {
	var parts []string
	for _, set := range sets {
		for _, l := range set {
			parts = append(parts, l.Name+`="`+escapeLabel(l.Value)+`"`)
		}
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// promFloat renders a float the way Prometheus expects (+Inf, not inf).
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// WriteProm renders every registered metric in the Prometheus text
// exposition format (version 0.0.4). A nil registry writes nothing.
func (r *Registry) WriteProm(w io.Writer) error {
	return WriteMerged(w, Source{Reg: r})
}

// Source is one registry in a merged exposition, with Labels prepended to
// every one of its series (replica="<idx>", say).
type Source struct {
	Reg    *Registry
	Labels []Label
}

// WriteMerged renders several registries as one exposition (version
// 0.0.4). Each family appears once, in name order, under the HELP and TYPE
// of the first source that registers it; its samples follow contiguously,
// source by source. A family registered as different kinds by two sources
// is an error, reported before anything is written. Nil registries
// contribute nothing.
func WriteMerged(w io.Writer, srcs ...Source) error {
	type part struct {
		src []Label
		fam famView
	}
	byName := map[string][]part{}
	var names []string
	for _, s := range srcs {
		for _, f := range s.Reg.sortedFamilies() {
			prev := byName[f.name]
			if len(prev) == 0 {
				names = append(names, f.name)
			} else if prev[0].fam.kind != f.kind {
				return fmt.Errorf("obs: family %q is a %v in one source and a %v in another", f.name, prev[0].fam.kind, f.kind)
			}
			byName[f.name] = append(prev, part{s.Labels, f})
		}
	}
	sort.Strings(names)
	pw := &promWriter{w: w}
	for _, name := range names {
		parts := byName[name]
		if help := parts[0].fam.help; help != "" {
			pw.printf("# HELP %s %s\n", name, help)
		}
		pw.printf("# TYPE %s %s\n", name, parts[0].fam.kind)
		for _, p := range parts {
			for _, m := range p.fam.series {
				pw.series(name, p.src, m)
			}
		}
	}
	return pw.err
}

// promWriter renders sample lines, keeping the first write error and
// skipping every write after it.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}

// series renders one series of family name with the source labels first.
func (p *promWriter) series(name string, src []Label, m metric) {
	switch v := m.(type) {
	case *Counter:
		p.printf("%s%s %d\n", name, promLabels(src, v.lbls), v.Value())
	case *FloatCounter:
		p.printf("%s%s %s\n", name, promLabels(src, v.lbls), promFloat(v.Value()))
	case *Gauge:
		p.printf("%s%s %d\n", name, promLabels(src, v.lbls), v.Value())
	case *Histogram:
		bounds, cum := v.Buckets()
		for i, c := range cum {
			le := "+Inf"
			if i < len(bounds) {
				le = promFloat(bounds[i])
			}
			p.printf("%s_bucket%s %d\n", name, promLabels(src, v.lbls, []Label{L("le", le)}), c)
		}
		p.printf("%s_sum%s %s\n", name, promLabels(src, v.lbls), promFloat(v.Sum()))
		p.printf("%s_count%s %d\n", name, promLabels(src, v.lbls), v.Count())
	default:
		if p.err == nil {
			p.err = fmt.Errorf("obs: unknown metric type %T", m)
		}
	}
}

// BucketSnapshot is one histogram bucket in a snapshot: the upper bound
// (rendered as Prometheus renders le, so "+Inf" stays representable in
// JSON) and the cumulative count at it.
type BucketSnapshot struct {
	UpperBound string `json:"le"`
	Count      uint64 `json:"count"`
}

// MetricSnapshot is one series frozen at snapshot time.
type MetricSnapshot struct {
	Name    string            `json:"name"`
	Kind    string            `json:"kind"`
	Labels  map[string]string `json:"labels,omitempty"`
	Value   float64           `json:"value"`
	Sum     float64           `json:"sum,omitempty"`
	Count   uint64            `json:"count,omitempty"`
	Buckets []BucketSnapshot  `json:"buckets,omitempty"`
}

// Snapshot freezes every series. Ordering matches WriteProm (name, then
// label signature). A nil registry snapshots empty.
func (r *Registry) Snapshot() []MetricSnapshot {
	var out []MetricSnapshot
	for _, f := range r.sortedFamilies() {
		for _, m := range f.series {
			s := MetricSnapshot{Name: f.name, Kind: f.kind.String()}
			if lbls := m.labelSet(); len(lbls) > 0 {
				s.Labels = make(map[string]string, len(lbls))
				for _, l := range lbls {
					s.Labels[l.Name] = l.Value
				}
			}
			switch v := m.(type) {
			case *Counter:
				s.Value = float64(v.Value())
			case *FloatCounter:
				s.Value = v.Value()
			case *Gauge:
				s.Value = float64(v.Value())
			case *Histogram:
				bounds, cum := v.Buckets()
				s.Sum = v.Sum()
				s.Count = v.Count()
				s.Buckets = make([]BucketSnapshot, len(cum))
				for i, c := range cum {
					le := "+Inf"
					if i < len(bounds) {
						le = promFloat(bounds[i])
					}
					s.Buckets[i] = BucketSnapshot{UpperBound: le, Count: c}
				}
			}
			out = append(out, s)
		}
	}
	return out
}

// WriteJSON renders the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Metrics []MetricSnapshot `json:"metrics"`
	}{Metrics: r.Snapshot()})
}
