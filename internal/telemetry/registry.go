// Package telemetry is the machine-wide observability layer: a metrics
// registry in which every simulated component publishes its counters and
// gauges under a stable hierarchical path, a phase-interval sampler that
// snapshots the registry as simulated time advances, and a trace
// exporter that renders sampler output as Chrome trace_event JSON
// loadable in Perfetto.
//
// The registry is pull-based: a component registers the counter it
// already maintains (`reg.Counter("cluster0/ce3/stall_mem",
// &c.StallMem)`), or a closure computing a gauge, so the instrumented
// fast path is untouched — the exported counter fields remain the
// backing store and the registry is the uniform, path-addressable view
// over all of them. Reading happens only when a snapshot is taken, and
// a machine that never asks for its registry pays nothing at all.
//
// A registry's layout — its paths and kinds in registration order, and
// their order by path — depends only on the machine's shape, so Shaped
// builds it once per shape and shares it, read-only, with every later
// registry of that shape. Such a registry binds only its value sources:
// a component registers through a Scope, a path prefix plus a constant
// name, and each registration is compared with the next cached path,
// not built.
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
	"sync"
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

// source is one metric's value: an int64 field it reads in place, or
// else a closure it calls.
type source struct {
	v    *int64
	read func() int64
}

func (s source) value() int64 {
	if s.v != nil {
		return *s.v
	}
	return s.read()
}

// A layout is the half of a registry that depends only on the machine's
// shape: every metric's path and kind in registration order, and their
// order by path. Machines of one shape register the same paths in the
// same order, so the layout the first of them builds serves the rest,
// which bind only their value sources. A layout is read-only once
// registries share it.
type layout struct {
	paths []string
	kinds []Kind
	// index maps each path to its position while the layout is built,
	// to refuse a duplicate; a shared layout drops it.
	index map[string]int
	// sorted holds every position ordered by path: the Fingerprint line
	// order and the index Value and KindOf search. pathBytes is the
	// architected paths' length plus a separator and a newline each.
	// sorted is nil until sortPaths runs.
	sorted    []int32
	pathBytes int
}

func (l *layout) sortPaths() {
	l.sorted, l.pathBytes = make([]int32, len(l.paths)), 0
	for i := range l.sorted {
		l.sorted[i] = int32(i)
		if l.kinds[i] != Diagnostic {
			l.pathBytes += len(l.paths[i]) + 2
		}
	}
	slices.SortFunc(l.sorted, func(a, b int32) int { return strings.Compare(l.paths[a], l.paths[b]) })
}

// find returns the position of path.
func (l *layout) find(path string) (int, bool) {
	i, ok := slices.BinarySearchFunc(l.sorted, path, func(i int32, p string) int { return strings.Compare(l.paths[i], p) })
	if !ok {
		return 0, false
	}
	return int(l.sorted[i]), true
}

// Registry holds the machine's metrics. The zero value is not usable;
// call NewRegistry or Shaped. A Registry is not safe for concurrent
// use — like the engine it observes, it belongs to one simulation
// goroutine — but registries sharing a layout may run concurrently.
type Registry struct {
	lay *layout
	// shared marks lay as read-only: registration checks each metric
	// against the next position, and a registry that departs from it
	// copies what it matched into a layout of its own.
	shared bool
	src    []source // parallel to lay.paths
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{lay: &layout{index: map[string]int{}}}
}

// layouts caches the layouts of the machine shapes built so far. Their
// metric count is bounded, so a stream of distinct shapes cannot grow a
// server's heap without limit: a 4-cluster Cedar has 1,515 metrics, a
// 64-cluster scaled one 23,717. A layout that would pass the bound
// empties the cache first.
var layouts struct {
	sync.Mutex
	byShape map[any]*layout
	metrics int
}

const maxCachedMetrics = 1 << 16

func cachedLayout(key any) *layout {
	layouts.Lock()
	defer layouts.Unlock()
	return layouts.byShape[key]
}

func cacheLayout(key any, lay *layout) {
	layouts.Lock()
	defer layouts.Unlock()
	if old := layouts.byShape[key]; old != nil {
		layouts.metrics -= len(old.paths)
	}
	if layouts.byShape == nil || layouts.metrics+len(lay.paths) > maxCachedMetrics {
		layouts.byShape, layouts.metrics = map[any]*layout{}, 0
	}
	layouts.byShape[key] = lay
	layouts.metrics += len(lay.paths)
}

// Shaped returns a registry that register populates, reusing the layout
// of the last registry built under the same shape key (a comparable
// value naming what decides the machine's metric paths). Registration
// into a cached layout builds no paths: each metric is compared with
// the next cached one and binds its value source there. A registry
// that departs from the cached layout — a key that does not decide the
// paths — builds a layout of its own, with every check a fresh
// registry makes, and that layout replaces the cached one. The key
// therefore decides only how much registration costs, never what the
// registry holds.
func Shaped(key any, register func(*Registry)) *Registry {
	r := &Registry{}
	if lay := cachedLayout(key); lay != nil {
		r.lay, r.shared = lay, true
		r.src = make([]source, 0, len(lay.paths))
	} else {
		r.lay = &layout{index: map[string]int{}}
	}
	register(r)
	if !r.shared || len(r.src) < len(r.lay.paths) {
		lay := r.view()
		lay.index = nil
		cacheLayout(key, lay)
		r.shared = true
	}
	return r
}

// own gives the registry a private copy of the shared layout's
// positions it has bound so far.
func (r *Registry) own() {
	n := len(r.src)
	lay := &layout{
		paths: slices.Clone(r.lay.paths[:n]),
		kinds: slices.Clone(r.lay.kinds[:n]),
		index: make(map[string]int, n),
	}
	for i, p := range lay.paths {
		lay.index[p] = i
	}
	r.lay, r.shared = lay, false
}

// view returns the registry's complete, sorted layout for reading.
func (r *Registry) view() *layout {
	if r.shared && len(r.src) < len(r.lay.paths) {
		r.own()
	}
	if r.lay.sorted == nil {
		r.lay.sortPaths()
	}
	return r.lay
}

// Scope is a registration scope: the metrics registered through it are
// named prefix + "/" + name (just name under an empty prefix). On a
// registry bound to a cached layout the joined path is compared, never
// built.
type Scope struct {
	r      *Registry
	prefix string
}

// Scope returns the registration scope for paths under prefix.
func (r *Registry) Scope(prefix string) Scope { return Scope{r: r, prefix: prefix} }

// Register adds a metric under path, read through the given closure at
// snapshot time. Paths are slash-separated, must be unique, and become
// part of the machine's observable surface — treat them as API. A path
// holds no byte at or below ' ', so no path sorts between another and
// its fingerprint line (see Fingerprint).
func (r *Registry) Register(path string, kind Kind, read func() int64) {
	r.Scope("").Register(path, kind, read)
}

// Counter registers a counter backed by an existing int64 field.
func (r *Registry) Counter(path string, v *int64) { r.Scope("").Counter(path, v) }

// CounterFunc registers a computed counter.
func (r *Registry) CounterFunc(path string, f func() int64) { r.Scope("").CounterFunc(path, f) }

// Gauge registers a computed instantaneous level.
func (r *Registry) Gauge(path string, f func() int64) { r.Scope("").Gauge(path, f) }

// Diagnostic registers a simulator-side statistic backed by an int64
// field; see Kind for why these are fenced off from fingerprints.
func (r *Registry) Diagnostic(path string, v *int64) { r.Scope("").Diagnostic(path, v) }

// Register is Registry.Register for the scope's name.
func (s Scope) Register(name string, kind Kind, read func() int64) {
	if read == nil {
		panic(fmt.Sprintf("telemetry: Register(%q) with nil reader", s.path(name)))
	}
	s.add(name, kind, source{read: read})
}

// Counter is Registry.Counter for the scope's name.
func (s Scope) Counter(name string, v *int64) { s.add(name, Counter, source{v: v}) }

// CounterFunc is Registry.CounterFunc for the scope's name.
func (s Scope) CounterFunc(name string, f func() int64) { s.Register(name, Counter, f) }

// Gauge is Registry.Gauge for the scope's name.
func (s Scope) Gauge(name string, f func() int64) { s.Register(name, Gauge, f) }

// Diagnostic is Registry.Diagnostic for the scope's name.
func (s Scope) Diagnostic(name string, v *int64) { s.add(name, Diagnostic, source{v: v}) }

func (s Scope) path(name string) string {
	if s.prefix == "" {
		return name
	}
	return s.prefix + "/" + name
}

// names reports whether path is the scope's name.
func (s Scope) names(path, name string) bool {
	if s.prefix == "" {
		return path == name
	}
	return len(path) == len(s.prefix)+1+len(name) && path[len(s.prefix)] == '/' &&
		strings.HasPrefix(path, s.prefix) && strings.HasSuffix(path, name)
}

func (s Scope) add(name string, kind Kind, src source) {
	r := s.r
	if r.shared {
		if k := len(r.src); k < len(r.lay.paths) && r.lay.kinds[k] == kind && s.names(r.lay.paths[k], name) {
			r.src = append(r.src, src)
			return
		}
		r.own()
	}
	path := s.path(name)
	if path == "" || strings.HasPrefix(path, "/") || strings.HasSuffix(path, "/") ||
		strings.IndexFunc(path, func(c rune) bool { return c <= ' ' }) >= 0 {
		panic(fmt.Sprintf("telemetry: malformed metric path %q", path))
	}
	lay := r.lay
	if _, dup := lay.index[path]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric path %q", path))
	}
	lay.index[path] = len(lay.paths)
	lay.paths = append(lay.paths, path)
	lay.kinds = append(lay.kinds, kind)
	lay.sorted = nil
	r.src = append(r.src, src)
}

// Len reports the number of registered metrics.
func (r *Registry) Len() int { return len(r.src) }

// Paths returns every metric path in registration order (which is the
// machine-assembly order and therefore deterministic).
func (r *Registry) Paths() []string { return slices.Clone(r.view().paths) }

// KindOf returns the kind of the metric at path.
func (r *Registry) KindOf(path string) (Kind, bool) {
	lay := r.view()
	i, ok := lay.find(path)
	if !ok {
		return 0, false
	}
	return lay.kinds[i], true
}

// Value reads the current value of the metric at path.
func (r *Registry) Value(path string) (int64, bool) {
	i, ok := r.view().find(path)
	if !ok {
		return 0, false
	}
	return r.src[i].value(), true
}

// Snapshot reads every metric, in registration order (parallel to
// Paths). The caller owns the returned slice.
func (r *Registry) Snapshot() []int64 {
	out := make([]int64, len(r.src))
	for i, s := range r.src {
		out[i] = s.value()
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
// is a prefix of another sorts first either way. The order comes with
// the layout, and the text is built in one buffer sized exactly up
// front, so the text is all a fingerprint allocates.
func (r *Registry) Fingerprint() string {
	lay := r.view()
	if lay.pathBytes == 0 {
		return "\n"
	}
	var num [20]byte
	size := lay.pathBytes
	for _, i := range lay.sorted {
		if lay.kinds[i] != Diagnostic {
			size += len(strconv.AppendInt(num[:0], r.src[i].value(), 10))
		}
	}
	var b strings.Builder
	b.Grow(size)
	for _, i := range lay.sorted {
		if lay.kinds[i] == Diagnostic {
			continue
		}
		b.WriteString(lay.paths[i])
		b.WriteByte(' ')
		b.Write(strconv.AppendInt(num[:0], r.src[i].value(), 10))
		b.WriteByte('\n')
	}
	return b.String()
}

// Dump renders every metric (diagnostics included, flagged) as sorted
// text lines — the -metrics-out format.
func (r *Registry) Dump() string {
	lay := r.view()
	lines := make([]string, len(r.src))
	for i, src := range r.src {
		suffix := ""
		if lay.kinds[i] == Diagnostic {
			suffix = " (diagnostic)"
		}
		lines[i] = fmt.Sprintf("%-40s %12d%s", lay.paths[i], src.value(), suffix)
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
