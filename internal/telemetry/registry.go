// Package telemetry is the machine-wide observability layer: a metrics
// registry in which every simulated component publishes its counters and
// gauges under a stable hierarchical path, a phase-interval sampler that
// snapshots the registry as simulated time advances, and a trace
// exporter that renders sampler output (plus performance-monitor events)
// as Chrome trace_event JSON loadable in Perfetto.
//
// The registry is pull-based: a component registers the counter it
// already maintains (`reg.Counter("cluster0/ce3/stall_mem",
// &c.StallMem)`), or a closure computing a gauge, so the instrumented
// fast path is untouched — the exported counter fields remain the
// backing store and the registry is the uniform, path-addressable view
// over all of them. Registration
// happens once at machine assembly and costs nothing afterwards;
// reading happens only when a snapshot is taken. A machine that never
// asks for its registry pays nothing at all.
//
// Metric paths mirror the machine topology:
//
//	cluster0/ce3/stall_mem        per-CE counters
//	cluster0/pfu3/issued          per-PFU counters
//	cluster0/cache/misses         per-cluster shared cache
//	net/fwd/in_flight             network gauges and counters
//	gmem/mod7/served              per-module counters
//	engine/fast_forwarded         engine diagnostics
//
// The first path segment names the process and the second the thread of
// the exported trace timeline; everything after that is the metric name.
package telemetry

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Kind classifies a metric.
type Kind uint8

// Metric kinds.
const (
	// Counter is a monotonically non-decreasing architected count (stall
	// cycles, packets delivered, flops). Counters participate in
	// fingerprints and per-interval deltas.
	Counter Kind = iota
	// Gauge is an instantaneous architected level (packets in flight,
	// queue depth). Gauges participate in fingerprints but deltas of a
	// gauge are level changes, not rates.
	Gauge
	// Diagnostic is a host-side simulator statistic (elided ticks,
	// fast-forwarded cycles) that legitimately differs between the
	// quiescence-aware and naive engine paths. Diagnostics are excluded
	// from fingerprints so the engine-equivalence tests can assert that
	// everything architected is bit-identical.
	Diagnostic
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Counter:
		return "counter"
	case Gauge:
		return "gauge"
	case Diagnostic:
		return "diagnostic"
	}
	return "unknown"
}

// metric is one registered instrument: an int64 field it reads in
// place, or else a closure it calls.
type metric struct {
	path string
	kind Kind
	v    *int64
	read func() int64
}

func (m *metric) value() int64 {
	if m.v != nil {
		return *m.v
	}
	return m.read()
}

// Registry holds the machine's metrics. The zero value is not usable;
// call NewRegistry. A Registry is not safe for concurrent use — like the
// engine it observes, it belongs to one simulation goroutine.
type Registry struct {
	metrics []metric
	index   map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: map[string]int{}}
}

// Register adds a metric under path, read through the given closure at
// snapshot time. Paths are slash-separated, must be unique, and become
// part of the machine's observable surface — treat them as API. A path
// holds no byte at or below ' ', so no path sorts between another and
// its fingerprint line (see Fingerprint).
func (r *Registry) Register(path string, kind Kind, read func() int64) {
	if read == nil {
		panic(fmt.Sprintf("telemetry: Register(%q) with nil reader", path))
	}
	r.add(metric{path: path, kind: kind, read: read})
}

func (r *Registry) add(m metric) {
	path := m.path
	if path == "" || strings.HasPrefix(path, "/") || strings.HasSuffix(path, "/") ||
		strings.IndexFunc(path, func(c rune) bool { return c <= ' ' }) >= 0 {
		panic(fmt.Sprintf("telemetry: malformed metric path %q", path))
	}
	if _, dup := r.index[path]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric path %q", path))
	}
	r.index[path] = len(r.metrics)
	r.metrics = append(r.metrics, m)
}

// Counter registers a counter backed by an existing int64 field.
func (r *Registry) Counter(path string, v *int64) {
	r.add(metric{path: path, kind: Counter, v: v})
}

// CounterFunc registers a computed counter.
func (r *Registry) CounterFunc(path string, f func() int64) { r.Register(path, Counter, f) }

// Gauge registers a computed instantaneous level.
func (r *Registry) Gauge(path string, f func() int64) { r.Register(path, Gauge, f) }

// Diagnostic registers a simulator-side statistic backed by an int64
// field; see Kind for why these are fenced off from fingerprints.
func (r *Registry) Diagnostic(path string, v *int64) {
	r.add(metric{path: path, kind: Diagnostic, v: v})
}

// Len reports the number of registered metrics.
func (r *Registry) Len() int { return len(r.metrics) }

// Paths returns every metric path in registration order (which is the
// machine-assembly order and therefore deterministic).
func (r *Registry) Paths() []string {
	out := make([]string, len(r.metrics))
	for i, m := range r.metrics {
		out[i] = m.path
	}
	return out
}

// KindOf returns the kind of the metric at path.
func (r *Registry) KindOf(path string) (Kind, bool) {
	i, ok := r.index[path]
	if !ok {
		return 0, false
	}
	return r.metrics[i].kind, true
}

// Value reads the current value of the metric at path.
func (r *Registry) Value(path string) (int64, bool) {
	i, ok := r.index[path]
	if !ok {
		return 0, false
	}
	return r.metrics[i].value(), true
}

// Snapshot reads every metric, in registration order (parallel to
// Paths). The caller owns the returned slice.
func (r *Registry) Snapshot() []int64 {
	out := make([]int64, len(r.metrics))
	for i, m := range r.metrics {
		out[i] = m.value()
	}
	return out
}

// Fingerprint renders every architected metric (counters and gauges,
// not diagnostics) as sorted "path value" lines. Two machines in the
// same architected state produce identical fingerprints regardless of
// which engine path ran them — the property the determinism suite
// asserts.
//
// The lines are sorted by path, which sorts them as whole lines too: a
// path holds no byte at or below the separating space, so a path that
// is a prefix of another sorts first either way. The text is built in
// one buffer sized exactly up front.
func (r *Registry) Fingerprint() string {
	lines := make([]*metric, 0, len(r.metrics))
	var num [20]byte
	size := 0
	for i := range r.metrics {
		if m := &r.metrics[i]; m.kind != Diagnostic {
			lines = append(lines, m)
			size += len(m.path) + len(strconv.AppendInt(num[:0], m.value(), 10)) + 2
		}
	}
	if len(lines) == 0 {
		return "\n"
	}
	slices.SortFunc(lines, func(a, b *metric) int { return strings.Compare(a.path, b.path) })
	var b strings.Builder
	b.Grow(size)
	for _, m := range lines {
		b.WriteString(m.path)
		b.WriteByte(' ')
		b.Write(strconv.AppendInt(num[:0], m.value(), 10))
		b.WriteByte('\n')
	}
	return b.String()
}

// Dump renders every metric (diagnostics included, flagged) as sorted
// text lines — the -metrics-out format.
func (r *Registry) Dump() string {
	lines := make([]string, 0, len(r.metrics))
	for _, m := range r.metrics {
		suffix := ""
		if m.kind == Diagnostic {
			suffix = " (diagnostic)"
		}
		lines = append(lines, fmt.Sprintf("%-40s %12d%s", m.path, m.value(), suffix))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// splitPath decomposes a metric path into the trace coordinates derived
// from its first two segments: process, thread, and the remaining
// metric name. Paths with fewer than three segments collapse the
// missing levels ("engine/skipped" is process "engine", thread
// "engine", metric "skipped").
func splitPath(path string) (process, thread, name string) {
	parts := strings.SplitN(path, "/", 3)
	switch len(parts) {
	case 1:
		return parts[0], parts[0], parts[0]
	case 2:
		return parts[0], parts[0], parts[1]
	default:
		return parts[0], parts[1], parts[2]
	}
}
