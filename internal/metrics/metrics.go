// Package metrics is the fleet's unified metrics registry. It folds
// the counters that previously lived as ad-hoc fields — fleet Stats,
// placement pool bindings, result-cache hit/miss, autoscaler
// adds/drains, chaos re-warms — into one namespace with Prometheus
// text exposition and an HTTP handler, as groundwork for the
// long-running smodfleetd server mode.
//
// The registry follows snapshot-at-barrier semantics: the fleet
// publishes its cumulative Stats into the registry at each rebalance
// barrier (and once more on Close), so every exposed value describes a
// consistent epoch boundary rather than a mid-stretch torn read.
// Because publication happens on the barrier path — where shards are
// already idle and control jobs cost zero simulated cycles — enabling
// metrics cannot move a single cycle of the simulation, the same
// invariant the trace recorder pins.
//
// Storage is atomic float64 bits per labeled series, so scrapes never
// block publication and the race detector stays quiet without a lock
// on the read path.
package metrics

import (
	"bufio"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Type distinguishes Prometheus metric types in the exposition.
type Type uint8

const (
	// Counter is a monotonically non-decreasing cumulative total. The
	// fleet publishes already-cumulative Stats fields with Set — the
	// value is monotone because the source counter is.
	Counter Type = iota
	// Gauge is a point-in-time level (live shards, pool bindings,
	// window p99).
	Gauge
)

func (t Type) String() string {
	if t == Gauge {
		return "gauge"
	}
	return "counter"
}

// Label is one name="value" pair on a series.
type Label struct {
	Name  string
	Value string
}

// Series is one labeled time series: a single atomic float64 cell.
type Series struct {
	bits atomic.Uint64
}

// Set stores v.
func (s *Series) Set(v float64) { s.bits.Store(floatBits(v)) }

// Add atomically adds delta.
func (s *Series) Add(delta float64) {
	for {
		old := s.bits.Load()
		nw := floatBits(floatFrom(old) + delta)
		if s.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Inc adds 1.
func (s *Series) Inc() { s.Add(1) }

// Value returns the current value.
func (s *Series) Value() float64 { return floatFrom(s.bits.Load()) }

func floatBits(v float64) uint64 { return math.Float64bits(v) }
func floatFrom(b uint64) float64 { return math.Float64frombits(b) }

// Family is one named metric with help text, a type, and its labeled
// series.
type Family struct {
	name string
	help string
	typ  Type

	mu     sync.Mutex
	series map[string]*Series // label-render -> series
	labels map[string][]Label // label-render -> original labels
}

// With returns the series for the given labels, creating it on first
// use. Labels must be passed in a consistent order per call site.
func (f *Family) With(labels ...Label) *Series {
	key := renderLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.series[key]
	if s == nil {
		s = &Series{}
		f.series[key] = s
		if len(labels) > 0 {
			f.labels[key] = append([]Label(nil), labels...)
		}
	}
	return s
}

// Drop removes the series for the given labels (a drained shard's
// per-shard gauges stop being exported rather than freezing at their
// last value).
func (f *Family) Drop(labels ...Label) {
	key := renderLabels(labels)
	f.mu.Lock()
	delete(f.series, key)
	delete(f.labels, key)
	f.mu.Unlock()
}

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// Registry holds metric families. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*Family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*Family{}}
}

// Family returns the named family, registering it on first use. Help
// and type are fixed by the first registration; later calls with the
// same name return the existing family unchanged.
func (r *Registry) Family(name, help string, typ Type) *Family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &Family{
			name:   name,
			help:   help,
			typ:    typ,
			series: map[string]*Series{},
			labels: map[string][]Label{},
		}
		r.fams[name] = f
	}
	return f
}

// Counter is shorthand for Family(name, help, Counter).With(labels...).
func (r *Registry) Counter(name, help string, labels ...Label) *Series {
	return r.Family(name, help, Counter).With(labels...)
}

// Gauge is shorthand for Family(name, help, Gauge).With(labels...).
func (r *Registry) Gauge(name, help string, labels ...Label) *Series {
	return r.Family(name, help, Gauge).With(labels...)
}

// Snapshot returns every series as "name" or "name{k=\"v\"}" mapped to
// its current value — the test- and CLI-friendly view of a barrier's
// published state.
func (r *Registry) Snapshot() map[string]float64 {
	out := map[string]float64{}
	r.mu.Lock()
	fams := make([]*Family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	for _, f := range fams {
		f.mu.Lock()
		for key, s := range f.series {
			out[f.name+key] = s.Value()
		}
		f.mu.Unlock()
	}
	return out
}

// WritePrometheus writes the registry in the Prometheus text
// exposition format (version 0.0.4), families and series in sorted
// order so identical states expose byte-identically.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	fams := make(map[string]*Family, len(r.fams))
	for name, f := range r.fams {
		fams[name] = f
	}
	r.mu.Unlock()
	sort.Strings(names)

	bw := bufio.NewWriter(w)
	for _, name := range names {
		f := fams[name]
		f.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for key := range f.series {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		if f.help != "" {
			bw.WriteString("# HELP ")
			bw.WriteString(f.name)
			bw.WriteByte(' ')
			bw.WriteString(f.help)
			bw.WriteByte('\n')
		}
		bw.WriteString("# TYPE ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(f.typ.String())
		bw.WriteByte('\n')
		for _, key := range keys {
			bw.WriteString(f.name)
			bw.WriteString(key)
			bw.WriteByte(' ')
			bw.WriteString(formatValue(f.series[key].Value()))
			bw.WriteByte('\n')
		}
		f.mu.Unlock()
	}
	return bw.Flush()
}

func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
