package job

import (
	"container/list"
	"encoding/json"
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

// maxCacheBytes bounds the result cache: the shards together keep at
// most this many bytes of completed entries (each entry charged its
// stored bytes plus entryOverhead), about 2,500 four-cluster results.
const maxCacheBytes = 64 << 20

// entryOverhead is what an entry is charged beyond its stored bytes:
// its key, map slot and struct. It bounds a stream of distinct failing
// specs too, whose entries store no result bytes.
const entryOverhead = 256

// Service is the memoizing execution layer behind cedard: a sharded,
// byte-bounded result cache keyed on Spec.Fingerprint, singleflight-style
// dedupe of identical in-flight requests, and a bounded worker pool for
// distinct jobs. A parameter sweep submitted by many clients costs one
// simulation per distinct config.
//
// Each entry stores its Result's compact JSON encoding, made once when
// the Runner returns, so a hit is a lookup whose bytes the caller writes
// out unchanged. Each shard keeps its completed entries in LRU order
// and evicts from the cold end once their bytes exceed its share of
// maxCacheBytes; in-flight entries are never evicted.
//
// Concurrency contract: per-shard mutexes only guard the entry maps and
// LRU lists — never held across a simulation — so K concurrent
// identical requests cost one Runner call (the rest block on the
// entry's done channel), and distinct jobs saturate but never exceed
// the pool bound.
type Service struct {
	run        Runner
	shards     []*cacheShard
	sem        chan struct{}
	shardBytes int64 // each shard's budget for completed entries

	// Counters, exported via RegisterMetrics.
	hits       atomic.Int64 // request served from a completed cache entry
	misses     atomic.Int64 // request that created the entry and ran the job
	joins      atomic.Int64 // request that joined an in-flight identical job
	executions atomic.Int64 // Runner invocations (== misses, asserted by tests)
	running    atomic.Int64 // Runner invocations currently holding a pool slot
	evictions  atomic.Int64 // completed entries dropped to keep within the bound
}

type cacheShard struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	lru     list.List // completed entries, warmest at the front
	bytes   int64     // charged bytes of the completed entries
}

type cacheEntry struct {
	fp   string
	done chan struct{} // closed once data/err are final
	data []byte        // the Result's compact JSON; nil when err is set
	err  error
	elem *list.Element // the entry's place in the LRU list; nil in flight
	size int64         // charged against the shard's budget
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
		run:        run,
		shards:     make([]*cacheShard, shards),
		sem:        make(chan struct{}, workers),
		shardBytes: maxCacheBytes / int64(shards),
	}
	for i := range s.shards {
		s.shards[i] = &cacheShard{entries: map[string]*cacheEntry{}}
	}
	return s
}

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

// residentBytes returns the charged bytes of the completed entries:
// what the byte bound limits.
func (s *Service) residentBytes() int64 {
	var n int64
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.bytes
		sh.mu.Unlock()
	}
	return n
}

// DoJSON returns the compact JSON encoding of spec's Result, executing
// the spec at most once per fingerprint while its entry is resident: an
// evicted spec runs again on its next request, as a miss. The second
// return is true when the bytes came from the cache or from joining an
// identical in-flight run — i.e. this call did not pay for a
// simulation. Every call for a resident entry returns the same bytes,
// which callers must not modify.
//
// An invalid spec fails fast with its *ValidationError and is never
// cached. Errors from the Runner are cached like results: the simulator
// is deterministic, so re-running a failing spec reproduces the
// failure. So are a Result that cannot be encoded (a NaN or infinite
// float) and a Runner panic, as a *PanicError: the pool slot is
// released and joiners get the error instead of hanging.
func (s *Service) DoJSON(spec Spec) ([]byte, bool, error) {
	fp, err := spec.Fingerprint()
	if err != nil {
		return nil, false, err
	}
	sh := s.shard(fp)
	sh.mu.Lock()
	if e, ok := sh.entries[fp]; ok {
		if e.elem != nil { // completed: a hit
			sh.lru.MoveToFront(e.elem)
			sh.mu.Unlock()
			s.hits.Add(1)
			return e.data, true, e.err
		}
		sh.mu.Unlock()
		s.joins.Add(1)
		<-e.done
		return e.data, true, e.err
	}
	e := &cacheEntry{fp: fp, done: make(chan struct{})}
	sh.entries[fp] = e
	sh.mu.Unlock()
	s.misses.Add(1)

	s.sem <- struct{}{} // acquire a pool slot; blocks when saturated
	s.running.Add(1)
	s.executions.Add(1)
	e.data, e.err = s.execute(spec)
	s.running.Add(-1)
	<-s.sem

	e.size = entryOverhead + int64(len(e.data))
	if e.err != nil {
		e.size += int64(len(e.err.Error()))
	}
	sh.mu.Lock()
	e.elem = sh.lru.PushFront(e)
	sh.bytes += e.size
	for sh.bytes > s.shardBytes {
		cold := sh.lru.Remove(sh.lru.Back()).(*cacheEntry)
		delete(sh.entries, cold.fp)
		sh.bytes -= cold.size
		s.evictions.Add(1)
	}
	sh.mu.Unlock()
	close(e.done)
	return e.data, false, e.err
}

// Do is DoJSON with the bytes decoded into a Result, for callers that
// read the result rather than forward it.
func (s *Service) Do(spec Spec) (Result, bool, error) {
	data, cached, err := s.DoJSON(spec)
	if err != nil {
		return Result{}, cached, err
	}
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		return Result{}, cached, fmt.Errorf("job: decode cached result: %w", err)
	}
	return res, cached, nil
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

// execute calls the Runner and encodes its Result, turning a panic into
// a *PanicError.
func (s *Service) execute(spec Spec) (data []byte, err error) {
	defer func() {
		if v := recover(); v != nil {
			data, err = nil, &PanicError{Value: v}
		}
	}()
	res, err := s.run(spec)
	if err != nil {
		return nil, err
	}
	if data, err = json.Marshal(res); err != nil {
		return nil, fmt.Errorf("job: encode result: %w", err)
	}
	return data, nil
}

func (s *Service) shard(fp string) *cacheShard {
	h := fnv.New32a()
	h.Write([]byte(fp))
	return s.shards[int(h.Sum32())%len(s.shards)]
}

// Stats returns the counters' current values (hits, misses, joins,
// executions).
func (s *Service) Stats() (hits, misses, joins, executions int64) {
	return s.hits.Load(), s.misses.Load(), s.joins.Load(), s.executions.Load()
}

// RegisterMetrics exposes the service counters on reg under prefix
// (cedard uses "cedard"): cache/{hits,misses,joins,evictions,entries,bytes}
// and pool/{executions,running,workers}.
func (s *Service) RegisterMetrics(reg *telemetry.Registry, prefix string) {
	reg.CounterFunc(prefix+"/cache/hits", s.hits.Load)
	reg.CounterFunc(prefix+"/cache/misses", s.misses.Load)
	reg.CounterFunc(prefix+"/cache/joins", s.joins.Load)
	reg.CounterFunc(prefix+"/cache/evictions", s.evictions.Load)
	reg.Gauge(prefix+"/cache/entries", func() int64 { return int64(s.Len()) })
	reg.Gauge(prefix+"/cache/bytes", s.residentBytes)
	reg.CounterFunc(prefix+"/pool/executions", s.executions.Load)
	reg.Gauge(prefix+"/pool/running", s.running.Load)
	reg.Gauge(prefix+"/pool/workers", func() int64 { return int64(cap(s.sem)) })
}
