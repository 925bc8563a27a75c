package job

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// Runner executes one normalized Spec to completion. The job service
// trusts it to be deterministic: a Result (or error) computed once is
// served for every later request with the same fingerprint.
type Runner func(Spec) (Result, error)

// Service is the memoizing execution layer behind cedard: a sharded
// result cache keyed on Spec.Fingerprint, singleflight-style dedupe of
// identical in-flight requests, and a bounded worker pool for distinct
// jobs. A parameter sweep submitted by many clients costs one
// simulation per distinct config.
//
// Concurrency contract: per-shard mutexes only guard the entry maps —
// never held across a simulation — so K concurrent identical requests
// cost one Runner call (the rest block on the entry's done channel),
// and distinct jobs saturate but never exceed the pool bound.
type Service struct {
	run    Runner
	shards []*cacheShard
	sem    chan struct{}

	// Counters (atomic; exported via RegisterMetrics).
	hits       int64 // request served from a completed cache entry
	misses     int64 // request that created the entry and ran the job
	joins      int64 // request that joined an in-flight identical job
	executions int64 // Runner invocations (== misses, asserted by tests)
	running    int64 // Runner invocations currently holding a pool slot
}

type cacheShard struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
}

type cacheEntry struct {
	done chan struct{} // closed once res/err are final
	res  Result
	err  error
}

// NewService builds a Service over run with the given shard count and
// worker-pool bound (values below 1 fall back to 1). Shard count trades
// lock contention against footprint; it does not affect semantics.
func NewService(run Runner, shards, workers int) *Service {
	if shards < 1 {
		shards = 1
	}
	if workers < 1 {
		workers = 1
	}
	s := &Service{
		run:    run,
		shards: make([]*cacheShard, shards),
		sem:    make(chan struct{}, workers),
	}
	for i := range s.shards {
		s.shards[i] = &cacheShard{entries: map[string]*cacheEntry{}}
	}
	return s
}

// Workers returns the pool bound.
func (s *Service) Workers() int { return cap(s.sem) }

// Len returns the number of cached entries (including in-flight ones).
func (s *Service) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// Do returns the result for spec, executing it at most once per
// fingerprint across the service's lifetime. The second return is true
// when the result came from the cache or from joining an identical
// in-flight run — i.e. this call did not pay for a simulation. An
// invalid spec fails fast with its *ValidationError and is never
// cached. Errors from the Runner are cached like results: the simulator
// is deterministic, so re-running a failing spec reproduces the
// failure. A Runner that panics fails the same way, with a *PanicError:
// the pool slot is released and joiners get the error instead of
// hanging.
func (s *Service) Do(spec Spec) (Result, bool, error) {
	fp, err := spec.Fingerprint()
	if err != nil {
		return Result{}, false, err
	}
	sh := s.shard(fp)
	sh.mu.Lock()
	if e, ok := sh.entries[fp]; ok {
		sh.mu.Unlock()
		select {
		case <-e.done:
			atomic.AddInt64(&s.hits, 1)
		default:
			atomic.AddInt64(&s.joins, 1)
			<-e.done
		}
		return e.res, true, e.err
	}
	e := &cacheEntry{done: make(chan struct{})}
	sh.entries[fp] = e
	sh.mu.Unlock()
	atomic.AddInt64(&s.misses, 1)

	s.sem <- struct{}{} // acquire a pool slot; blocks when saturated
	atomic.AddInt64(&s.running, 1)
	atomic.AddInt64(&s.executions, 1)
	e.res, e.err = s.execute(spec)
	atomic.AddInt64(&s.running, -1)
	<-s.sem
	close(e.done)
	return e.res, false, e.err
}

// PanicError is the error of a job whose Runner panicked. The panic is a
// simulator bug, and a deterministic one, so it is cached like any other
// Runner error.
type PanicError struct {
	Value any // the value passed to panic
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("job: simulation panicked: %v", e.Value)
}

// execute calls the Runner, turning a panic into a *PanicError.
func (s *Service) execute(spec Spec) (res Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			res, err = Result{}, &PanicError{Value: v}
		}
	}()
	return s.run(spec)
}

func (s *Service) shard(fp string) *cacheShard {
	h := fnv.New32a()
	h.Write([]byte(fp))
	return s.shards[int(h.Sum32())%len(s.shards)]
}

// Stats returns the counters' current values (hits, misses, joins,
// executions).
func (s *Service) Stats() (hits, misses, joins, executions int64) {
	return atomic.LoadInt64(&s.hits), atomic.LoadInt64(&s.misses),
		atomic.LoadInt64(&s.joins), atomic.LoadInt64(&s.executions)
}

// RegisterMetrics exposes the service counters on reg under prefix
// (cedard uses "cedard"): cache/{hits,misses,joins,entries} and
// pool/{executions,running,workers}.
func (s *Service) RegisterMetrics(reg *telemetry.Registry, prefix string) {
	reg.CounterFunc(prefix+"/cache/hits", func() int64 { return atomic.LoadInt64(&s.hits) })
	reg.CounterFunc(prefix+"/cache/misses", func() int64 { return atomic.LoadInt64(&s.misses) })
	reg.CounterFunc(prefix+"/cache/joins", func() int64 { return atomic.LoadInt64(&s.joins) })
	reg.Gauge(prefix+"/cache/entries", func() int64 { return int64(s.Len()) })
	reg.CounterFunc(prefix+"/pool/executions", func() int64 { return atomic.LoadInt64(&s.executions) })
	reg.Gauge(prefix+"/pool/running", func() int64 { return atomic.LoadInt64(&s.running) })
	reg.Gauge(prefix+"/pool/workers", func() int64 { return int64(cap(s.sem)) })
}
