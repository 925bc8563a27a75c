// Command cedard is the simulation job server: it accepts batched
// job.Specs over HTTP/JSON and runs them through the same Spec→runner
// path cedarsim drives from flags, behind a fingerprint-keyed result
// cache. The simulator is fully deterministic, so identical specs are
// perfectly cacheable: a parameter sweep submitted by many clients
// costs one simulation per distinct configuration — concurrent
// identical requests are deduped in flight, repeats are served from
// the cache, and distinct jobs fan out to a bounded worker pool.
//
//	cedard -addr localhost:8633 -shards 16 -workers 8
//
//	POST /jobs     one Spec object or an array of Specs; returns a
//	               response per job, in order, each carrying the spec
//	               fingerprint, whether it was served without running a
//	               simulation, and the result. Any invalid spec rejects
//	               the whole batch with 400 and per-job errors; a body
//	               over 1 MiB is refused with 413 and a batch of more
//	               than 1024 jobs with 400.
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

	svc := job.NewService(runner.Run, *shards, *workers)
	reg := telemetry.NewRegistry()
	svc.RegisterMetrics(reg, "cedard")

	log.Printf("cedard: listening on %s (%d cache shards, %d workers)", *addr, *shards, *workers)
	if err := http.ListenAndServe(*addr, newHandler(svc, reg)); err != nil {
		log.Fatal("cedard: ", err)
	}
}

// Request limits. Each batch element gets its own goroutine, so both
// the body and the batch must be bounded for one request not to exhaust
// the server.
const (
	maxBodyBytes = 1 << 20
	maxBatchJobs = 1024
)

// jobResponse is one element of the POST /jobs reply, parallel to the
// submitted batch.
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
	// Error reports a runner failure for this job (the batch itself was
	// valid, so the other jobs still carry results).
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
		resps := make([]jobResponse, len(specs))
		var wg sync.WaitGroup
		for i, s := range specs {
			wg.Add(1)
			go func(i int, s job.Spec) {
				defer wg.Done()
				fp, _ := s.Fingerprint() // validated above; cannot fail
				res, cached, err := svc.Do(s)
				if err != nil {
					resps[i] = jobResponse{Fingerprint: fp, Cached: cached, Error: err.Error()}
					return
				}
				resps[i] = jobResponse{Fingerprint: fp, Cached: cached, Result: &res}
			}(i, s)
		}
		wg.Wait()
		writeJSON(w, http.StatusOK, resps)
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

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
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
