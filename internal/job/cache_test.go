package job

import (
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
