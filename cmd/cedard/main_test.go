package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/job"
	"repro/internal/job/runner"
	"repro/internal/telemetry"
)

func testServer(t *testing.T, workers int) (*httptest.Server, *job.Service) {
	t.Helper()
	svc := job.NewService(runner.Run, 4, workers)
	reg := telemetry.NewRegistry()
	svc.RegisterMetrics(reg, "cedard")
	srv := httptest.NewServer(newHandler(svc, reg))
	t.Cleanup(srv.Close)
	return srv, svc
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
// identical results and fingerprints.
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

	// Round 2: everything is a cache hit with identical payloads.
	status, body = postJobs(t, srv, batch)
	if status != http.StatusOK {
		t.Fatalf("status %d on resubmit: %s", status, body)
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
	for _, want := range []string{"cedard/cache/hits", "cedard/cache/misses", "cedard/pool/executions"} {
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
// a sweep through it twice — the end-to-end path ci exercises.
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
	}
}
