package telemetry

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestRegistryRegisterAndRead(t *testing.T) {
	reg := NewRegistry()
	var stalls, flops int64 = 7, 42
	reg.Counter("cluster0/ce3/stalls", &stalls)
	reg.Counter("cluster0/ce3/flops", &flops)
	inFlight := int64(3)
	reg.Gauge("net/fwd/in_flight", func() int64 { return inFlight })
	var skipped int64 = 99
	reg.Diagnostic("engine/skipped_ticks", &skipped)

	if reg.Len() != 4 {
		t.Fatalf("Len = %d, want 4", reg.Len())
	}
	want := []string{"cluster0/ce3/stalls", "cluster0/ce3/flops", "net/fwd/in_flight", "engine/skipped_ticks"}
	got := reg.Paths()
	for i, p := range want {
		if got[i] != p {
			t.Fatalf("Paths[%d] = %q, want %q (registration order)", i, got[i], p)
		}
	}
	if v, ok := reg.Value("cluster0/ce3/stalls"); !ok || v != 7 {
		t.Fatalf("Value(stalls) = %d,%v", v, ok)
	}
	stalls = 8 // the registry is a view, not a copy
	if v, _ := reg.Value("cluster0/ce3/stalls"); v != 8 {
		t.Fatalf("Value(stalls) after mutation = %d, want 8", v)
	}
	if _, ok := reg.Value("no/such/metric"); ok {
		t.Fatal("Value on unknown path reported ok")
	}
	if k, ok := reg.KindOf("net/fwd/in_flight"); !ok || k != Gauge {
		t.Fatalf("KindOf(in_flight) = %v,%v, want Gauge", k, ok)
	}
	if k, _ := reg.KindOf("engine/skipped_ticks"); k != Diagnostic {
		t.Fatalf("KindOf(skipped_ticks) = %v, want Diagnostic", k)
	}
	snap := reg.Snapshot()
	if len(snap) != 4 || snap[0] != 8 || snap[1] != 42 || snap[2] != 3 || snap[3] != 99 {
		t.Fatalf("Snapshot = %v", snap)
	}
}

func TestRegistryPanics(t *testing.T) {
	expectPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}
	reg := NewRegistry()
	var v int64
	reg.Counter("a/b/c", &v)
	expectPanic("duplicate path", func() { reg.Counter("a/b/c", &v) })
	expectPanic("nil reader", func() { reg.Register("a/b/d", Counter, nil) })
	expectPanic("empty path", func() { reg.CounterFunc("", func() int64 { return 0 }) })
	expectPanic("leading slash", func() { reg.CounterFunc("/a/b", func() int64 { return 0 }) })
	expectPanic("trailing slash", func() { reg.CounterFunc("a/b/", func() int64 { return 0 }) })
	// Fingerprint sorts by path; that sorts its "path value" lines only
	// while no path holds a byte at or below the separating space.
	for _, path := range []string{"a/b c", "a/b\tc", "a/b\nc", "a/b\x00c", " a/b"} {
		expectPanic(fmt.Sprintf("path %q", path), func() { reg.Counter(path, &v) })
		expectPanic(fmt.Sprintf("diagnostic path %q", path), func() { reg.Diagnostic(path, &v) })
		expectPanic(fmt.Sprintf("gauge path %q", path), func() { reg.Gauge(path, func() int64 { return 0 }) })
	}
}

// TestFingerprintLines pins the rendering edge cases: a path that is a
// prefix of another sorts first, negative values keep their sign, and an
// empty registry renders one newline.
func TestFingerprintLines(t *testing.T) {
	if fp := NewRegistry().Fingerprint(); fp != "\n" {
		t.Fatalf("empty fingerprint = %q, want a lone newline", fp)
	}
	reg := NewRegistry()
	a, b, c := int64(-12), int64(3), int64(9223372036854775807)
	reg.Counter("net/x!", &a)
	reg.Counter("net/x/y", &b)
	reg.Counter("net/x", &c)
	reg.Gauge("net/w", func() int64 { return -9223372036854775808 })
	want := "net/w -9223372036854775808\nnet/x 9223372036854775807\nnet/x! -12\nnet/x/y 3\n"
	if fp := reg.Fingerprint(); fp != want {
		t.Fatalf("fingerprint = %q, want %q", fp, want)
	}
}

func TestFingerprintExcludesDiagnostics(t *testing.T) {
	reg := NewRegistry()
	var c, d int64 = 5, 1000
	reg.Counter("z/y/count", &c)
	reg.Gauge("a/b/level", func() int64 { return 2 })
	reg.Diagnostic("engine/skipped", &d)

	fp := reg.Fingerprint()
	if strings.Contains(fp, "skipped") {
		t.Fatalf("fingerprint includes a diagnostic:\n%s", fp)
	}
	// Sorted lines, trailing newline.
	if fp != "a/b/level 2\nz/y/count 5\n" {
		t.Fatalf("fingerprint = %q", fp)
	}
	// Diagnostics drifting apart must not change the fingerprint.
	d += 12345
	if reg.Fingerprint() != fp {
		t.Fatal("fingerprint changed when only a diagnostic changed")
	}
	c++
	if reg.Fingerprint() == fp {
		t.Fatal("fingerprint missed an architected counter change")
	}
}

func TestDumpFlagsDiagnostics(t *testing.T) {
	reg := NewRegistry()
	var c, d int64 = 5, 9
	reg.Counter("z/y/count", &c)
	reg.Diagnostic("engine/skipped", &d)
	dump := reg.Dump()
	if !strings.Contains(dump, "(diagnostic)") {
		t.Fatalf("dump does not flag the diagnostic:\n%s", dump)
	}
	lines := strings.Split(strings.TrimSuffix(dump, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("dump has %d lines, want 2:\n%s", len(lines), dump)
	}
	if !strings.HasPrefix(lines[0], "engine/skipped") {
		t.Fatalf("dump not sorted:\n%s", dump)
	}
}

func TestSplitPath(t *testing.T) {
	cases := []struct {
		path, process, thread, name string
	}{
		{"cluster0/ce3/stall_mem", "cluster0", "ce3", "stall_mem"},
		{"cluster1/cache/hits/deep", "cluster1", "cache", "hits/deep"},
		{"engine/skipped", "engine", "engine", "skipped"},
		{"flops", "flops", "flops", "flops"},
	}
	for _, c := range cases {
		p, th, n := splitPath(c.path)
		if p != c.process || th != c.thread || n != c.name {
			t.Fatalf("splitPath(%q) = %q,%q,%q, want %q,%q,%q",
				c.path, p, th, n, c.process, c.thread, c.name)
		}
	}
}

// TestFingerprintAllocations: a fingerprint is built in one buffer, not
// a string per metric, so its allocations do not grow with the registry.
func TestFingerprintAllocations(t *testing.T) {
	reg := NewRegistry()
	values := make([]int64, 1500)
	for i := range values {
		values[i] = int64(i * 7919)
		reg.Counter(fmt.Sprintf("cluster%d/ce%d/m%d", i%4, i%8, i), &values[i])
	}
	if n := testing.AllocsPerRun(10, func() { reg.Fingerprint() }); n > 10 {
		t.Fatalf("Fingerprint of %d metrics allocated %v times, want at most 10", len(values), n)
	}
}

// shapedMetrics registers n counters over vals under a fixed shape:
// what a machine of one shape does.
func shapedMetrics(vals []int64) func(*Registry) {
	return func(r *Registry) {
		for i := range vals {
			s := r.Scope(fmt.Sprintf("cluster%d/ce%d", i%3, i))
			s.Counter("flops", &vals[i])
			s.Gauge("level", func() int64 { return -vals[i] })
		}
		r.Diagnostic("engine/skipped", &vals[0])
	}
}

// TestShapedMatchesFresh: a registry bound to a cached layout holds
// exactly what a fresh registry holds — paths, kinds, values and the
// fingerprint — and reads its own machine's values.
func TestShapedMatchesFresh(t *testing.T) {
	key := struct{ name string }{t.Name()}
	a := []int64{5, 11, 7, 3}
	b := []int64{9, 2, 14, 8}
	fresh := NewRegistry()
	shapedMetrics(b)(fresh)
	first := Shaped(key, shapedMetrics(a))
	second := Shaped(key, shapedMetrics(b))
	if !second.shared || second.lay != first.lay {
		t.Fatal("the second registry of a shape did not bind to the first one's layout")
	}
	if got, want := second.Paths(), fresh.Paths(); !slices.Equal(got, want) {
		t.Fatalf("Paths = %v, want %v", got, want)
	}
	if got, want := second.Snapshot(), fresh.Snapshot(); !slices.Equal(got, want) {
		t.Fatalf("Snapshot = %v, want %v", got, want)
	}
	if second.Fingerprint() != fresh.Fingerprint() || second.Dump() != fresh.Dump() {
		t.Fatalf("fingerprint or dump differs:\n%s\nwant\n%s", second.Fingerprint(), fresh.Fingerprint())
	}
	if first.Fingerprint() == second.Fingerprint() {
		t.Fatal("two machines with different values share a fingerprint")
	}
	for _, p := range fresh.Paths() {
		v, ok := second.Value(p)
		w, _ := fresh.Value(p)
		k, _ := second.KindOf(p)
		fk, _ := fresh.KindOf(p)
		if !ok || v != w || k != fk {
			t.Fatalf("%s: value %d kind %v, want %d %v", p, v, k, w, fk)
		}
	}
}

// TestShapedDeparture: a registry whose registrations depart from its
// key's cached layout — a shorter one, a longer one, one that differs
// midway or in a kind — builds its own layout, equal to a fresh
// registry's, and replaces the cached one; the registries already bound
// to the old layout keep it.
func TestShapedDeparture(t *testing.T) {
	key := struct{ name string }{t.Name()}
	vals := []int64{1, 2, 3, 4}
	old := Shaped(key, shapedMetrics(vals))
	oldFP := old.Fingerprint()
	for name, register := range map[string]func(*Registry){
		"shorter": shapedMetrics(vals[:2]),
		"longer":  shapedMetrics(append(slices.Clone(vals), 5)),
		"midway": func(r *Registry) {
			shapedMetrics(vals[:2])(r)
			r.Counter("other/path", &vals[2])
		},
		"kind": func(r *Registry) {
			r.Scope("cluster0/ce0").Diagnostic("flops", &vals[0])
		},
	} {
		fresh := NewRegistry()
		register(fresh)
		got := Shaped(key, register)
		if !slices.Equal(got.Paths(), fresh.Paths()) || got.Fingerprint() != fresh.Fingerprint() || got.Dump() != fresh.Dump() {
			t.Fatalf("%s: registry differs from a fresh one:\n%s\nwant\n%s", name, got.Dump(), fresh.Dump())
		}
		if again := Shaped(key, register); again.lay != got.lay {
			t.Fatalf("%s: the departing registry's layout was not cached", name)
		}
		if old.Fingerprint() != oldFP {
			t.Fatalf("%s: a departure changed a registry bound to the old layout", name)
		}
		Shaped(key, shapedMetrics(vals)) // restore the key's layout
	}
	// Registering after Shaped returns copies the shared layout first.
	r := Shaped(key, shapedMetrics(vals))
	var extra int64 = 42
	r.Counter("late/metric", &extra)
	if v, ok := r.Value("late/metric"); !ok || v != 42 || r.Len() != old.Len()+1 {
		t.Fatalf("late registration: value %d, %v, Len %d", v, ok, r.Len())
	}
	if _, ok := old.Value("late/metric"); ok || old.Fingerprint() != oldFP {
		t.Fatal("a late registration leaked into the shared layout")
	}
	// A duplicate that departs from the cached layout still panics.
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate path under a cached layout did not panic")
		}
	}()
	Shaped(key, func(r *Registry) {
		r.Scope("cluster0/ce0").Counter("flops", &vals[0])
		r.Scope("cluster0/ce0").Counter("flops", &vals[0])
	})
}

// TestLayoutCacheBound: the cache never holds more than its metric
// bound, and keeps the newest layout whatever came before.
func TestLayoutCacheBound(t *testing.T) {
	big := make([]int64, maxCachedMetrics/4)
	keyOf := func(i int) any {
		return struct {
			name string
			i    int
		}{t.Name(), i}
	}
	for i := 0; i < 8; i++ {
		Shaped(keyOf(i), func(r *Registry) {
			for j := range big {
				r.Counter(fmt.Sprintf("m%d", j), &big[j])
			}
		})
		layouts.Lock()
		total, counted := 0, layouts.metrics
		for _, lay := range layouts.byShape {
			total += len(lay.paths)
		}
		layouts.Unlock()
		if total > maxCachedMetrics || total != counted {
			t.Fatalf("after %d layouts the cache holds %d metrics, counts %d (bound %d)", i+1, total, counted, maxCachedMetrics)
		}
		if cachedLayout(keyOf(i)) == nil {
			t.Fatalf("layout %d was not cached", i)
		}
	}
	if cachedLayout(keyOf(0)) != nil {
		t.Fatal("the first layout outlived seven more that pass the bound")
	}
}

// TestShapedConcurrent builds and fingerprints registries of a few
// shapes from several goroutines at once, as a job server's workers do;
// under -race it checks that bound registries share their layout
// without a data race.
func TestShapedConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				n := 1 + (g+i)%4
				vals := make([]int64, n)
				for j := range vals {
					vals[j] = int64(g*1000 + i*10 + j)
				}
				key := struct {
					name string
					n    int
				}{t.Name(), n}
				fresh := NewRegistry()
				shapedMetrics(vals)(fresh)
				if got := Shaped(key, shapedMetrics(vals)); got.Fingerprint() != fresh.Fingerprint() {
					t.Errorf("shape %d: fingerprint differs from a fresh registry's", n)
					return
				}
			}
		}()
	}
	wg.Wait()
}
