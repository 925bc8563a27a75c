package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/job"
	"repro/internal/job/runner"
	"repro/internal/telemetry"
)

func testServer(t *testing.T, workers int) (*httptest.Server, *job.Service) {
	t.Helper()
	svc := job.NewService(runner.Run, 4, workers)
	return serve(t, svc), svc
}

// serve starts an httptest server for svc, closed when t ends.
func serve(tb testing.TB, svc *job.Service) *httptest.Server {
	reg := telemetry.NewRegistry()
	svc.RegisterMetrics(reg, "cedard")
	srv := httptest.NewServer(newHandler(svc, reg))
	tb.Cleanup(srv.Close)
	return srv
}

// rawResults decodes a 200 /jobs body keeping each job's result as the
// bytes the server wrote.
func rawResults(t *testing.T, body []byte) []json.RawMessage {
	t.Helper()
	var resps []struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &resps); err != nil {
		t.Fatalf("bad response: %v\n%s", err, body)
	}
	out := make([]json.RawMessage, len(resps))
	for i, r := range resps {
		out[i] = r.Result
	}
	return out
}

func postJobs(t *testing.T, srv *httptest.Server, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode, []byte(readAll(t, resp))
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestJobsBatch: a batch of distinct jobs returns one response per job
// in order; resubmitting the batch serves every job from the cache with
// identical fingerprints and result bytes identical to the misses'.
func TestJobsBatch(t *testing.T) {
	srv, svc := testServer(t, 4)
	batch := `[
		{"workload":"vl","clusters":1,"size":1024},
		{"workload":"tm","clusters":1,"size":1024},
		{"workload":"vl","clusters":1,"size":1024,"prefetch":false}
	]`
	status, body := postJobs(t, srv, batch)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var first []jobResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatalf("bad response: %v\n%s", err, body)
	}
	if len(first) != 3 {
		t.Fatalf("%d responses for 3 jobs", len(first))
	}
	for i, jr := range first {
		if jr.Error != "" || jr.Result == nil {
			t.Fatalf("job %d failed: %+v", i, jr)
		}
		if jr.Cached {
			t.Fatalf("job %d reported cached on a cold cache", i)
		}
		if jr.Result.RegistryFingerprint == "" {
			t.Fatalf("job %d carries no registry fingerprint", i)
		}
	}
	if first[0].Fingerprint == first[2].Fingerprint {
		t.Fatal("prefetch on/off collided on one fingerprint")
	}
	if first[0].Result.Workload != "VL(pref)" && !strings.Contains(first[0].Result.Workload, "VL") {
		t.Fatalf("unexpected workload name %q", first[0].Result.Workload)
	}

	missBytes := rawResults(t, body)

	// Round 2: everything is a cache hit with identical payloads.
	status, body = postJobs(t, srv, batch)
	if status != http.StatusOK {
		t.Fatalf("status %d on resubmit: %s", status, body)
	}
	for i, hit := range rawResults(t, body) {
		if !bytes.Equal(hit, missBytes[i]) {
			t.Fatalf("job %d: hit bytes differ from the miss's:\n%s\n%s", i, hit, missBytes[i])
		}
	}
	var second []jobResponse
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	for i := range second {
		if !second[i].Cached {
			t.Fatalf("job %d not cached on resubmit", i)
		}
		if second[i].Fingerprint != first[i].Fingerprint {
			t.Fatalf("job %d fingerprint changed across submissions", i)
		}
		if second[i].Result.Cycles != first[i].Result.Cycles ||
			second[i].Result.RegistryFingerprint != first[i].Result.RegistryFingerprint {
			t.Fatalf("job %d cached result differs from the original", i)
		}
	}
	_, _, _, execs := svc.Stats()
	if execs != 3 {
		t.Fatalf("%d executions for 3 distinct jobs submitted twice", execs)
	}
}

// TestJobsDedupeWithinBatch: identical specs inside one batch — even
// spelled differently — run once and share the fingerprint.
func TestJobsDedupeWithinBatch(t *testing.T) {
	srv, svc := testServer(t, 4)
	batch := `[
		{"workload":"vl","clusters":1,"size":2048},
		{"size":2048,"clusters":1,"workload":"vl","mode":"pref"}
	]`
	status, body := postJobs(t, srv, batch)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resps []jobResponse
	if err := json.Unmarshal(body, &resps); err != nil {
		t.Fatal(err)
	}
	if resps[0].Fingerprint != resps[1].Fingerprint {
		t.Fatal("equivalent spellings got distinct fingerprints")
	}
	if _, _, _, execs := svc.Stats(); execs != 1 {
		t.Fatalf("%d executions for 2 identical jobs", execs)
	}
}

// TestJobsEncodeFailure: a result JSON cannot carry (a NaN rate) fails
// only its own job, with an error naming the encoding; the reply is
// still a well-formed 200 and the other job keeps its result.
func TestJobsEncodeFailure(t *testing.T) {
	svc := job.NewService(func(s job.Spec) (job.Result, error) {
		res := job.Result{Workload: s.Workload, Cycles: 1}
		if s.Workload == "tm" {
			res.MFLOPS = math.NaN()
		}
		return res, nil
	}, 4, 2)
	srv := serve(t, svc)
	batch := `[{"workload":"vl","clusters":1},{"workload":"tm","clusters":1}]`
	for round := 0; round < 2; round++ {
		status, body := postJobs(t, srv, batch)
		if status != http.StatusOK {
			t.Fatalf("round %d: status %d: %s", round, status, body)
		}
		var resps []jobResponse
		if err := json.Unmarshal(body, &resps); err != nil {
			t.Fatalf("round %d: bad response: %v\n%s", round, err, body)
		}
		if len(resps) != 2 {
			t.Fatalf("round %d: %d responses for 2 jobs", round, len(resps))
		}
		if resps[0].Error != "" || resps[0].Result == nil || resps[0].Result.Workload != "vl" {
			t.Fatalf("round %d: the encodable job lost its result: %+v", round, resps[0])
		}
		if resps[1].Result != nil || !strings.Contains(resps[1].Error, "encode result") {
			t.Fatalf("round %d: the NaN job's error does not name the encoding: %+v", round, resps[1])
		}
	}
	if _, _, _, execs := svc.Stats(); execs != 2 {
		t.Fatalf("%d executions for 2 distinct jobs submitted twice", execs)
	}
}

// TestJobsIgnoreEngine: the engine is not part of a job's identity, so a
// naive spec runs on the default engine and its wake-cached twin is a
// hit on the same entry.
func TestJobsIgnoreEngine(t *testing.T) {
	var mu sync.Mutex
	var engines []string
	svc := job.NewService(func(s job.Spec) (job.Result, error) {
		mu.Lock()
		engines = append(engines, s.Engine)
		mu.Unlock()
		return job.Result{Workload: s.Workload}, nil
	}, 4, 2)
	srv := serve(t, svc)
	var fps []string
	for i, body := range []string{
		`{"workload":"vl","clusters":1,"engine":"naive"}`,
		`{"workload":"vl","clusters":1}`,
	} {
		status, resp := postJobs(t, srv, body)
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, resp)
		}
		var resps []jobResponse
		if err := json.Unmarshal(resp, &resps); err != nil {
			t.Fatal(err)
		}
		if resps[0].Cached != (i == 1) {
			t.Fatalf("request %d: cached=%v", i, resps[0].Cached)
		}
		fps = append(fps, resps[0].Fingerprint)
	}
	if fps[0] != fps[1] {
		t.Fatal("naive and wake-cached spellings got distinct fingerprints")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(engines) != 1 || engines[0] != "" {
		t.Fatalf("runner saw engines %q, want one run on the default engine", engines)
	}
}

// TestJobsRejectsInvalid: any invalid spec rejects the whole batch with
// 400 and per-job errors, and nothing is simulated.
func TestJobsRejectsInvalid(t *testing.T) {
	srv, svc := testServer(t, 2)
	cases := []struct {
		name, body, want string
	}{
		{"unknown field", `{"workload":"vl","iters":5}`, "iters"},
		{"unknown workload", `[{"workload":"vl","clusters":1},{"workload":"linpack"}]`, "linpack"},
		{"negative size", `{"workload":"vl","size":-1}`, "size"},
		{"empty batch", `[]`, "empty"},
		{"trailing garbage", `{"workload":"vl"} extra`, "trailing"},
		{"retired parallel engine", `{"workload":"vl","engine":"parallel"}`, "engine"},
		{"retired quiescent engine", `{"workload":"vl","engine":"quiescent"}`, "engine"},
		{"retired worker budget", `{"workload":"vl","par_workers":2}`, "par_workers"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := postJobs(t, srv, tc.body)
			if status != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", status, body)
			}
			if !strings.Contains(string(body), tc.want) {
				t.Fatalf("400 body does not mention %q:\n%s", tc.want, body)
			}
		})
	}
	if _, _, _, execs := svc.Stats(); execs != 0 {
		t.Fatalf("invalid batches triggered %d executions", execs)
	}
	// The batch containing one valid job must not have run it either.
	if svc.Len() != 0 {
		t.Fatalf("invalid batch left %d cache entries", svc.Len())
	}
}

// TestJobsRequestLimits: a body one byte over the cap is refused with
// 413 and a batch one job over the cap with 400 naming jobs, neither
// running anything; a body and a batch of exactly the caps are served.
func TestJobsRequestLimits(t *testing.T) {
	srv, svc := testServer(t, 2)
	const spec = `{"workload":"vl","clusters":1,"size":1024}`
	pad := func(n int) string { return spec + strings.Repeat(" ", n-len(spec)) }

	status, body := postJobs(t, srv, pad(maxBodyBytes+1))
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d-byte body: status %d, want 413: %s", maxBodyBytes+1, status, body)
	}
	batch := func(n int) string {
		return "[" + strings.TrimSuffix(strings.Repeat(spec+",", n), ",") + "]"
	}
	status, body = postJobs(t, srv, batch(maxBatchJobs+1))
	if status != http.StatusBadRequest || !strings.Contains(string(body), "jobs") {
		t.Fatalf("%d-job batch: status %d, want 400 naming jobs: %s", maxBatchJobs+1, status, body)
	}
	if _, _, _, execs := svc.Stats(); execs != 0 {
		t.Fatalf("over-limit requests triggered %d executions", execs)
	}

	if status, body = postJobs(t, srv, pad(maxBodyBytes)); status != http.StatusOK {
		t.Fatalf("%d-byte body: status %d, want 200: %s", maxBodyBytes, status, body)
	}
	status, body = postJobs(t, srv, batch(maxBatchJobs))
	if status != http.StatusOK {
		t.Fatalf("%d-job batch: status %d, want 200: %s", maxBatchJobs, status, body)
	}
	var resps []jobResponse
	if err := json.Unmarshal(body, &resps); err != nil {
		t.Fatal(err)
	}
	if len(resps) != maxBatchJobs {
		t.Fatalf("%d responses for %d jobs", len(resps), maxBatchJobs)
	}
	if _, _, _, execs := svc.Stats(); execs != 1 {
		t.Fatalf("%d executions for one distinct spec", execs)
	}
}

// TestMetricsAndHealth: the telemetry surface reflects what ran.
func TestMetricsAndHealth(t *testing.T) {
	srv, _ := testServer(t, 2)
	if _, body := postJobs(t, srv, `{"workload":"vl","clusters":1,"size":1024}`); len(body) == 0 {
		t.Fatal("empty response")
	}
	postJobs(t, srv, `{"workload":"vl","clusters":1,"size":1024}`)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text := readAll(t, resp)
	resp.Body.Close()
	for _, want := range []string{"cedard/cache/hits", "cedard/cache/misses", "cedard/cache/evictions",
		"cedard/cache/bytes", "cedard/pool/executions"} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %s:\n%s", want, text)
		}
	}
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) >= 2 && (f[0] == "cedard/cache/hits" || f[0] == "cedard/pool/executions") {
			if f[1] != "1" {
				t.Fatalf("%s = %s, want 1\n%s", f[0], f[1], text)
			}
		}
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	ok := readAll(t, resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(ok, "ok") {
		t.Fatalf("/healthz: %d %q", resp.StatusCode, ok)
	}
}

// TestSmoke builds the real binary, starts it on a free port, and runs
// a sweep through it twice — the end-to-end path ci exercises. The hits'
// result bytes must equal the misses'.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary; skipped with -short")
	}
	bin := filepath.Join(t.TempDir(), "cedard")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	addr := "localhost:18633"
	cmd := exec.Command(bin, "-addr", addr, "-workers", "2")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	url := "http://" + addr
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never came up")
		}
		time.Sleep(50 * time.Millisecond)
	}
	batch := `[{"workload":"vl","clusters":1,"size":1024},{"workload":"rk","clusters":1,"size":64}]`
	var missBytes []json.RawMessage
	for round, wantCached := range []bool{false, true} {
		resp, err := http.Post(url+"/jobs", "application/json", strings.NewReader(batch))
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: status %d: %s", round, resp.StatusCode, body)
		}
		var resps []jobResponse
		if err := json.Unmarshal([]byte(body), &resps); err != nil {
			t.Fatalf("round %d: %v\n%s", round, err, body)
		}
		for i, jr := range resps {
			if jr.Error != "" || jr.Result == nil {
				t.Fatalf("round %d job %d: %+v", round, i, jr)
			}
			if jr.Cached != wantCached {
				t.Fatalf("round %d job %d: cached=%v, want %v", round, i, jr.Cached, wantCached)
			}
		}
		raw := rawResults(t, []byte(body))
		if round == 0 {
			missBytes = raw
			continue
		}
		for i := range raw {
			if !bytes.Equal(raw[i], missBytes[i]) {
				t.Fatalf("job %d: hit bytes differ from the miss's", i)
			}
		}
	}
}

// BenchmarkJobsHit times an all-hit POST /jobs of a 4-spec batch through
// the handler: lookup and reply writing, over loopback HTTP.
func BenchmarkJobsHit(b *testing.B) {
	srv := serve(b, job.NewService(runner.Run, 16, 2))
	batch := []byte(`[
		{"workload":"vl","clusters":1,"size":256},
		{"workload":"tm","clusters":2,"size":512},
		{"workload":"mg3d","clusters":1,"iterations":1},
		{"workload":"cg","clusters":1,"iterations":1}
	]`)
	post := func() []byte {
		resp, err := http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader(batch))
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d, %v: %s", resp.StatusCode, err, body)
		}
		return body
	}
	post() // the misses
	var n int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n = len(post())
	}
	b.ReportMetric(float64(n)/4, "resp-B/job")
}
