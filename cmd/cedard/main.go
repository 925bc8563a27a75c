// Command cedard is the simulation job server: it accepts batched
// job.Specs over HTTP/JSON and runs them through the same Spec→runner
// path cedarsim drives from flags, behind a fingerprint-keyed result
// cache. The simulator is fully deterministic, so identical specs are
// perfectly cacheable: a parameter sweep submitted by many clients
// costs one simulation per distinct configuration — concurrent
// identical requests are deduped in flight, repeats are served from
// the cache, and distinct jobs fan out to a bounded worker pool. Every
// job runs on the wake-cached engine: both engine paths give
// bit-identical results, so a spec's engine is not part of its cache
// key and does not choose how cedard runs it.
//
//	cedard -addr localhost:8633 -shards 16 -workers 8
//
//	POST /jobs     one Spec object or an array of Specs; returns a
//	               compact JSON response per job, in order, each
//	               carrying the spec fingerprint, whether it was served
//	               without running a simulation, and the result. Any
//	               invalid spec rejects the whole batch with 400 and
//	               per-job errors; a body over 1 MiB is refused with 413
//	               and a batch of more than 1024 jobs with 400.
//	GET  /metrics  the cache/pool telemetry registry as text
//	GET  /healthz  liveness probe
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"

	"repro/internal/job"
	"repro/internal/job/runner"
	"repro/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "localhost:8633", "listen address")
	shards := flag.Int("shards", 16, "result-cache shard count")
	workers := flag.Int("workers", runtime.NumCPU(), "worker-pool bound: distinct jobs simulated concurrently")
	flag.Parse()
	if *shards < 1 {
		usageError(fmt.Errorf("-shards %d: need at least one cache shard", *shards))
	}
	if *workers < 1 {
		usageError(fmt.Errorf("-workers %d: need at least one worker", *workers))
	}

	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(gcPercent)
	}
	svc := job.NewService(runner.Run, *shards, *workers)
	reg := telemetry.NewRegistry()
	svc.RegisterMetrics(reg, "cedard")

	log.Printf("cedard: listening on %s (%d cache shards, %d workers)", *addr, *shards, *workers)
	if err := http.ListenAndServe(*addr, newHandler(svc, reg)); err != nil {
		log.Fatal("cedard: ", err)
	}
}

// gcPercent is cedard's garbage-collection target, unless GOGC sets one.
// Its live heap is mostly 64 MB machine stores, which hold no pointers
// and so cost the collector almost nothing to mark. At the default 100%
// a burst of misses leaves the heap goal at twice two stores, and hits,
// which allocate little, take seconds to reach it: the server holds that
// memory resident all the while. At 20% the heap stays within a fifth of
// what is live, so with a few workers a store that gmem's spare slot
// could not keep is collected before the next one is allocated.
const gcPercent = 20

// Request limits. Each batch element gets its own goroutine, so both
// the body and the batch must be bounded for one request not to exhaust
// the server.
const (
	maxBodyBytes = 1 << 20
	maxBatchJobs = 1024
)

// jobResponse is one element of the POST /jobs reply, parallel to the
// submitted batch: the documented wire schema. appendJobs writes it
// without an encoder, so the stored result bytes go out unchanged.
type jobResponse struct {
	// Fingerprint is the spec's canonical fingerprint — the cache key,
	// and the stable identity clients can correlate sweeps by.
	Fingerprint string `json:"fingerprint"`
	// Cached is true when this request did not pay for a simulation: the
	// result came from the cache or from joining an identical in-flight
	// run.
	Cached bool `json:"cached"`
	// Result is the simulation outcome; nil when Error is set.
	Result *job.Result `json:"result,omitempty"`
	// Error reports a runner failure for this job, or a result that
	// could not be encoded (the batch itself was valid, so the other
	// jobs still carry results).
	Error string `json:"error,omitempty"`
}

// errorResponse is the 400 reply: what was wrong, per job.
type errorResponse struct {
	Error string     `json:"error"`
	Jobs  []jobError `json:"jobs,omitempty"`
}

type jobError struct {
	// Index is the job's position in the submitted batch.
	Index int    `json:"index"`
	Error string `json:"error"`
}

// newHandler wires the routes over the service; split from main so
// tests drive it through httptest without a listener.
func newHandler(svc *job.Service, reg *telemetry.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		specs, err := job.Decode(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorResponse{Error: fmt.Sprintf("request body exceeds the %d-byte limit", maxBodyBytes)})
			return
		}
		if err == nil && len(specs) > maxBatchJobs {
			err = &job.ValidationError{Field: "jobs",
				Reason: fmt.Sprintf("batch of %d exceeds the %d-job limit", len(specs), maxBatchJobs)}
		}
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		// Validate the whole batch before running any of it: a sweep with
		// one typo fails fast and atomically instead of half-executing.
		var bad []jobError
		for i, s := range specs {
			if err := runner.Validate(s); err != nil {
				bad = append(bad, jobError{Index: i, Error: err.Error()})
			}
		}
		if len(bad) > 0 {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "invalid job batch", Jobs: bad})
			return
		}
		// Fan out: the service dedupes identical specs in flight and
		// bounds distinct ones by the worker pool, so the handler can
		// submit the whole batch at once.
		replies := make([]jobReply, len(specs))
		var wg sync.WaitGroup
		for i, s := range specs {
			wg.Add(1)
			go func(i int, s job.Spec) {
				defer wg.Done()
				// The engine is not in the key, so a client must not
				// choose it for a shared entry: every miss runs wake-cached.
				s.Engine = ""
				fp, _ := s.Fingerprint() // validated above; cannot fail
				data, cached, err := svc.DoJSON(s)
				if err != nil {
					msg, _ := json.Marshal(err.Error()) // a string always encodes
					replies[i] = jobReply{fp: fp, cached: cached, key: "error", value: msg}
					return
				}
				replies[i] = jobReply{fp: fp, cached: cached, key: "result", value: data}
			}(i, s)
		}
		wg.Wait()
		body := appendJobs(replies)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(http.StatusOK)
		if _, err := w.Write(body); err != nil {
			log.Print("cedard: write response: ", err)
		}
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, reg.Dump())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// jobReply is one job's element of the POST /jobs reply: its
// fingerprint, whether it was cached, and either its stored result
// bytes under "result" or its error as a JSON string under "error".
type jobReply struct {
	fp     string
	cached bool
	key    string
	value  []byte
}

// appendJobs builds the POST /jobs reply, a jobResponse array, around
// the stored result bytes, which go out unchanged: serving a hit runs no
// encoder. The buffer is sized up front, so it is allocated once and the
// reply goes out in one write.
func appendJobs(replies []jobReply) []byte {
	const frame = `{"fingerprint":"","cached":false,"":},`
	n := len("[]\n")
	for _, r := range replies {
		n += len(frame) + len(r.fp) + len(r.key) + len(r.value)
	}
	buf := make([]byte, 0, n)
	buf = append(buf, '[')
	for i, r := range replies {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"fingerprint":"`...)
		buf = append(buf, r.fp...)
		buf = append(buf, `","cached":`...)
		buf = strconv.AppendBool(buf, r.cached)
		buf = append(buf, `,"`...)
		buf = append(buf, r.key...)
		buf = append(buf, `":`...)
		buf = append(buf, r.value...)
		buf = append(buf, '}')
	}
	return append(buf, "]\n"...)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Print("cedard: encode response: ", err)
	}
}

// usageError reports a bad flag value the way flag.Parse reports a
// malformed one: message plus usage to stderr, exit status 2.
func usageError(err error) {
	fmt.Fprintln(os.Stderr, "cedard:", err)
	flag.Usage()
	os.Exit(2)
}
