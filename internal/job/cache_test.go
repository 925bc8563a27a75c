package job

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/telemetry"
)

// fakeRunner counts invocations and can hold them at a gate so tests
// control exactly when simulations "finish".
type fakeRunner struct {
	calls   int64
	active  int64
	maxSeen int64
	gate    chan struct{} // when non-nil, every run blocks here
	fail    map[string]error
}

func (f *fakeRunner) run(spec Spec) (Result, error) {
	atomic.AddInt64(&f.calls, 1)
	n := atomic.AddInt64(&f.active, 1)
	for {
		max := atomic.LoadInt64(&f.maxSeen)
		if n <= max || atomic.CompareAndSwapInt64(&f.maxSeen, max, n) {
			break
		}
	}
	if f.gate != nil {
		<-f.gate
	}
	atomic.AddInt64(&f.active, -1)
	if err := f.fail[spec.Workload]; err != nil {
		return Result{}, err
	}
	return Result{Workload: spec.Workload, Cycles: int64(spec.Size)}, nil
}

func metric(t *testing.T, reg *telemetry.Registry, name string) int64 {
	t.Helper()
	v, ok := reg.Value(name)
	if !ok {
		t.Fatalf("metric %q not registered", name)
	}
	return v
}

// TestCacheSingleExecution is the core dedupe guarantee under -race:
// K concurrent identical requests execute exactly one simulation; the
// other K-1 join the in-flight run. Counters are asserted through the
// telemetry registry, the same surface cedard exports on /metrics.
func TestCacheSingleExecution(t *testing.T) {
	const K = 32
	fr := &fakeRunner{gate: make(chan struct{})}
	svc := NewService(fr.run, 8, 4)
	reg := telemetry.NewRegistry()
	svc.RegisterMetrics(reg, "cedard")

	spec := Spec{Workload: "rk", Size: 64}
	var wg sync.WaitGroup
	var cachedCount int64
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, cached, err := svc.Do(spec)
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			if res.Cycles != 64 {
				t.Errorf("Do returned cycles=%d, want 64", res.Cycles)
			}
			if cached {
				atomic.AddInt64(&cachedCount, 1)
			}
		}()
	}
	// Let the one live run (and the joiners queued behind it) finish.
	close(fr.gate)
	wg.Wait()

	if got := atomic.LoadInt64(&fr.calls); got != 1 {
		t.Fatalf("runner executed %d times for %d identical requests, want 1", got, K)
	}
	if cachedCount != K-1 {
		t.Fatalf("%d requests reported cached, want %d", cachedCount, K-1)
	}
	if got := metric(t, reg, "cedard/pool/executions"); got != 1 {
		t.Fatalf("pool/executions = %d, want 1", got)
	}
	if got := metric(t, reg, "cedard/cache/misses"); got != 1 {
		t.Fatalf("cache/misses = %d, want 1", got)
	}
	hits := metric(t, reg, "cedard/cache/hits")
	joins := metric(t, reg, "cedard/cache/joins")
	if hits+joins != K-1 {
		t.Fatalf("hits(%d)+joins(%d) = %d, want %d", hits, joins, hits+joins, K-1)
	}
	if got := metric(t, reg, "cedard/cache/entries"); got != 1 {
		t.Fatalf("cache/entries = %d, want 1", got)
	}

	// A later identical request is a pure hit: no join, no execution.
	if _, cached, err := svc.Do(spec); err != nil || !cached {
		t.Fatalf("post-completion Do: cached=%v err=%v, want cached hit", cached, err)
	}
	if got := metric(t, reg, "cedard/cache/hits"); got != hits+1 {
		t.Fatalf("cache/hits = %d after warm hit, want %d", got, hits+1)
	}
	if got := metric(t, reg, "cedard/pool/executions"); got != 1 {
		t.Fatalf("warm hit triggered an execution: pool/executions = %d", got)
	}
}

// TestPoolBound: distinct specs saturate the worker pool but never
// exceed it, and all of them complete once slots free up.
func TestPoolBound(t *testing.T) {
	const workers, jobs = 3, 20
	fr := &fakeRunner{gate: make(chan struct{}, jobs)}
	svc := NewService(fr.run, 4, workers)

	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := Spec{Workload: "vl", Size: (i + 1) * 512} // distinct fingerprints
			if _, cached, err := svc.Do(spec); err != nil || cached {
				t.Errorf("job %d: cached=%v err=%v", i, cached, err)
			}
		}(i)
	}
	// Release jobs one at a time; concurrency can never exceed the pool.
	for i := 0; i < jobs; i++ {
		fr.gate <- struct{}{}
	}
	wg.Wait()

	if got := atomic.LoadInt64(&fr.maxSeen); got > workers {
		t.Fatalf("observed %d concurrent runner calls, pool bound is %d", got, workers)
	}
	if got := atomic.LoadInt64(&fr.calls); got != jobs {
		t.Fatalf("runner executed %d times, want %d distinct jobs", got, jobs)
	}
	if got := svc.Len(); got != jobs {
		t.Fatalf("cache holds %d entries, want %d", got, jobs)
	}
}

// TestCacheDistinctSpecs: different fingerprints never share a result.
func TestCacheDistinctSpecs(t *testing.T) {
	fr := &fakeRunner{}
	svc := NewService(fr.run, 2, 2)
	for _, size := range []int{128, 256, 512} {
		res, cached, err := svc.Do(Spec{Workload: "tm", Size: size})
		if err != nil || cached {
			t.Fatalf("size %d: cached=%v err=%v", size, cached, err)
		}
		if res.Cycles != int64(size) {
			t.Fatalf("size %d: got result for cycles=%d", size, res.Cycles)
		}
	}
	if got := atomic.LoadInt64(&fr.calls); got != 3 {
		t.Fatalf("runner executed %d times, want 3", got)
	}
}

// TestCacheInvalidSpec: validation failures surface immediately and are
// never cached or executed.
func TestCacheInvalidSpec(t *testing.T) {
	fr := &fakeRunner{}
	svc := NewService(fr.run, 2, 2)
	_, _, err := svc.Do(Spec{Workload: "rk", Size: -1})
	var verr *ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("got %v, want a *ValidationError", err)
	}
	if fr.calls != 0 || svc.Len() != 0 {
		t.Fatalf("invalid spec reached the runner (calls=%d) or cache (len=%d)", fr.calls, svc.Len())
	}
}

// TestCacheRunnerError: a deterministic failure is cached like a result
// — the second request gets the same error without re-running.
func TestCacheRunnerError(t *testing.T) {
	boom := fmt.Errorf("solver diverged")
	fr := &fakeRunner{fail: map[string]error{"cg": boom}}
	svc := NewService(fr.run, 2, 2)
	spec := Spec{Workload: "cg", Iterations: 5}
	if _, cached, err := svc.Do(spec); !errors.Is(err, boom) || cached {
		t.Fatalf("first Do: cached=%v err=%v", cached, err)
	}
	if _, cached, err := svc.Do(spec); !errors.Is(err, boom) || !cached {
		t.Fatalf("second Do: cached=%v err=%v, want cached error", cached, err)
	}
	if got := atomic.LoadInt64(&fr.calls); got != 1 {
		t.Fatalf("failing spec ran %d times, want 1", got)
	}
}

// TestCacheRunnerPanic: a panicking Runner neither kills the process nor
// strands its joiners. With a single pool slot, K identical requests all
// get the cached *PanicError, and the slot is free again for a distinct
// spec afterwards.
func TestCacheRunnerPanic(t *testing.T) {
	const K = 8
	gate := make(chan struct{})
	run := func(spec Spec) (Result, error) {
		if spec.Workload == "cg" {
			<-gate
			panic("packet reused while in flight")
		}
		return Result{Workload: spec.Workload}, nil
	}
	svc := NewService(run, 2, 1)
	reg := telemetry.NewRegistry()
	svc.RegisterMetrics(reg, "cedard")

	spec := Spec{Workload: "cg", Iterations: 5}
	errs := make(chan error, K)
	for i := 0; i < K; i++ {
		go func() {
			_, _, err := svc.Do(spec)
			errs <- err
		}()
	}
	// Release the run once every other request has joined it.
	for metric(t, reg, "cedard/cache/joins") < K-1 {
		runtime.Gosched()
	}
	close(gate)
	for i := 0; i < K; i++ {
		var perr *PanicError
		if err := <-errs; !errors.As(err, &perr) || perr.Value != "packet reused while in flight" {
			t.Fatalf("Do: got %v, want a *PanicError naming the panic", err)
		}
	}
	if got := metric(t, reg, "cedard/pool/running"); got != 0 {
		t.Fatalf("pool/running = %d after the panic, want 0", got)
	}
	if res, cached, err := svc.Do(Spec{Workload: "rk"}); err != nil || cached || res.Workload != "rk" {
		t.Fatalf("distinct spec after the panic: res=%+v cached=%v err=%v", res, cached, err)
	}
	if _, cached, err := svc.Do(spec); !cached || err == nil {
		t.Fatalf("repeat of the panicking spec: cached=%v err=%v, want the cached error", cached, err)
	}
}

// TestCacheResidentBytes: a resident entry's Do result re-encodes to the
// bytes DoJSON serves, and a hit serves exactly the miss's bytes.
func TestCacheResidentBytes(t *testing.T) {
	lat, ia := 9.5, 1.25
	run := func(spec Spec) (Result, error) {
		return Result{Workload: spec.Workload, CEs: 8, Cycles: 12345, Flops: 678, MFLOPS: 3.0 / 7,
			Check: -1e-300, LatencyCycles: &lat, InterarrivalCycles: &ia,
			Notes: []string{"residual <1e-6 & falling"}, Tables: []string{"a\tb\n"},
			RegistryFingerprint: "abc", FaultCensus: map[string]int64{"net-stall": 3, "repairs": 1}}, nil
	}
	svc := NewService(run, 2, 2)
	spec := Spec{Workload: "cg", Size: 512}
	miss, cached, err := svc.DoJSON(spec)
	if err != nil || cached {
		t.Fatalf("first DoJSON: cached=%v err=%v", cached, err)
	}
	hit, cached, err := svc.DoJSON(spec)
	if err != nil || !cached || !bytes.Equal(hit, miss) {
		t.Fatalf("hit: cached=%v err=%v, bytes equal to the miss's: %v", cached, err, bytes.Equal(hit, miss))
	}
	res, cached, err := svc.Do(spec)
	if err != nil || !cached {
		t.Fatalf("Do: cached=%v err=%v", cached, err)
	}
	again, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, miss) {
		t.Fatalf("Do's Result re-encodes to\n%s\nnot the stored\n%s", again, miss)
	}
}

// boundedService is a service over fr whose shards each hold exactly fit
// of the fake runner's vl results for sizes 1000..9999 (all of one
// encoded length).
func boundedService(t *testing.T, fr *fakeRunner, shards, fit int) (*Service, *telemetry.Registry) {
	t.Helper()
	svc := NewService(fr.run, shards, 2)
	data, err := json.Marshal(Result{Workload: "vl", Cycles: 1000})
	if err != nil {
		t.Fatal(err)
	}
	svc.shardBytes = int64(fit) * (entryOverhead + int64(len(data)))
	reg := telemetry.NewRegistry()
	svc.RegisterMetrics(reg, "cedard")
	return svc, reg
}

// TestCacheByteBound: however many distinct specs pass through, the
// resident bytes never exceed the bound; the overflow is evicted, and
// the counters and gauges say so.
func TestCacheByteBound(t *testing.T) {
	const shards, fit, specs = 4, 3, 200
	svc, reg := boundedService(t, &fakeRunner{}, shards, fit)
	for i := 0; i < specs; i++ {
		if _, _, err := svc.Do(Spec{Workload: "vl", Size: 1000 + i}); err != nil {
			t.Fatal(err)
		}
		if got, bound := svc.residentBytes(), shards*svc.shardBytes; got > bound {
			t.Fatalf("after %d specs: %d resident bytes exceed the %d-byte bound", i+1, got, bound)
		}
	}
	if n := svc.Len(); n > shards*fit {
		t.Fatalf("%d entries resident, at most %d fit", n, shards*fit)
	}
	if got := metric(t, reg, "cedard/cache/evictions"); got != int64(specs-svc.Len()) {
		t.Fatalf("cache/evictions = %d, want %d distinct specs less %d resident", got, specs, svc.Len())
	}
	if got := metric(t, reg, "cedard/cache/bytes"); got != svc.residentBytes() || got == 0 {
		t.Fatalf("cache/bytes = %d, want the resident %d", got, svc.residentBytes())
	}
}

// TestCacheLRU: a hit keeps an entry warm, so the next eviction takes an
// older entry that was never hit; the evicted spec runs again as a miss.
func TestCacheLRU(t *testing.T) {
	fr := &fakeRunner{}
	svc, reg := boundedService(t, fr, 1, 2)
	a, b, c := Spec{Workload: "vl", Size: 1000}, Spec{Workload: "vl", Size: 2000}, Spec{Workload: "vl", Size: 3000}
	do := func(s Spec, wantCached bool) {
		t.Helper()
		res, cached, err := svc.Do(s)
		if err != nil || cached != wantCached || res.Cycles != int64(s.Size) {
			t.Fatalf("Do(size %d): cycles=%d cached=%v err=%v, want cached=%v", s.Size, res.Cycles, cached, err, wantCached)
		}
	}
	do(a, false)
	do(b, false)
	do(a, true)  // a is now warmer than b
	do(c, false) // evicts b, the coldest
	do(a, true)
	do(b, false) // evicted: runs again, and evicts c
	if got := atomic.LoadInt64(&fr.calls); got != 4 {
		t.Fatalf("runner executed %d times, want 4 (a, b, c, b again)", got)
	}
	if got := metric(t, reg, "cedard/cache/evictions"); got != 2 {
		t.Fatalf("cache/evictions = %d, want 2", got)
	}
	if misses, execs := metric(t, reg, "cedard/cache/misses"), metric(t, reg, "cedard/pool/executions"); misses != execs {
		t.Fatalf("cache/misses = %d but pool/executions = %d", misses, execs)
	}
}

// TestCacheEvictedJoiners: joiners hold the entry they joined, so they
// get its result even when the entry is evicted the moment it completes.
func TestCacheEvictedJoiners(t *testing.T) {
	const K = 8
	fr := &fakeRunner{gate: make(chan struct{})}
	svc, reg := boundedService(t, fr, 1, 0)
	spec := Spec{Workload: "vl", Size: 4000}
	errs := make(chan error, K)
	for i := 0; i < K; i++ {
		go func() {
			res, _, err := svc.Do(spec)
			if err == nil && res.Cycles != 4000 {
				err = fmt.Errorf("got cycles=%d, want 4000", res.Cycles)
			}
			errs <- err
		}()
	}
	for metric(t, reg, "cedard/cache/joins") < K-1 {
		runtime.Gosched()
	}
	close(fr.gate)
	for i := 0; i < K; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if svc.Len() != 0 || metric(t, reg, "cedard/cache/evictions") != 1 {
		t.Fatalf("entry over a zero budget still resident: %d entries, %d evictions",
			svc.Len(), metric(t, reg, "cedard/cache/evictions"))
	}
}

// TestCacheBoundConcurrent, under -race: K clients sweep more specs than
// the cache holds, in different orders, so entries are evicted while
// others are hit and joined. Every request gets its own spec's result,
// every miss executes once, and the bound holds.
func TestCacheBoundConcurrent(t *testing.T) {
	const K, specs, rounds, shards, fit = 8, 48, 3, 4, 2
	fr := &fakeRunner{}
	svc, _ := boundedService(t, fr, shards, fit)
	var wg sync.WaitGroup
	for k := 0; k < K; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := 0; i < specs; i++ {
					size := 1000 + (i*(k+1)+r)%specs
					res, _, err := svc.Do(Spec{Workload: "vl", Size: size})
					if err != nil || res.Cycles != int64(size) {
						t.Errorf("client %d: size %d got cycles=%d err=%v", k, size, res.Cycles, err)
						return
					}
				}
			}
		}(k)
	}
	wg.Wait()
	hits, misses, joins, execs := svc.Stats()
	if hits+misses+joins != K*rounds*specs {
		t.Fatalf("hits %d + misses %d + joins %d != %d requests", hits, misses, joins, K*rounds*specs)
	}
	if execs != misses || atomic.LoadInt64(&fr.calls) != misses {
		t.Fatalf("%d executions and %d runner calls for %d misses", execs, fr.calls, misses)
	}
	if got, bound := svc.residentBytes(), shards*svc.shardBytes; got > bound {
		t.Fatalf("%d resident bytes exceed the %d-byte bound", got, bound)
	}
	if svc.evictions.Load() == 0 {
		t.Fatal("no entry was evicted: the sweep did not overflow the cache")
	}
}
