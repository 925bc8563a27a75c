package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/job"
)

// cedard-sweeps shape. A run spends rampShare of --seconds on an
// open-loop ramp that warms the cache with every hot spec (checked, not
// timed: the burst of first misses is set-up, not the steady state),
// windowShare on the timed open-loop window, where every coldEvery-th
// batch meets a cold spec, and the rest on the closed loop. The rate is
// the lowest that gives the 1000 samples p99 needs in the window of a
// 25 s run.
const (
	openRate       = 64.0 // batches per second, open loop
	rampShare      = 0.12
	windowShare    = 0.64
	connections    = 2   // keep-alive connections, one per sender
	serverWorkers  = 2   // cedard -workers
	maxBatch       = 8   // batch sizes are uniform on 1..maxBatch
	zipfS          = 1.1 // Zipf exponent of hot-spec popularity
	hotSpecs       = 136 // population specs drawn by popularity
	coldEvery      = 16  // every 16th window batch carries one cold spec
	popularitySeed = 7   // fixes the hot/cold split, whatever --seed
	closedSlice    = 500 * time.Millisecond
)

// cedardPhases splits a run of total into ramp, timed window and
// closed loop.
func cedardPhases(total time.Duration) (ramp, window, closed time.Duration) {
	ramp = time.Duration(rampShare * float64(total))
	window = time.Duration(windowShare * float64(total))
	return ramp, window, total - ramp - window
}

// cedardServer is one cedard process the benchmark started.
type cedardServer struct {
	cmd    *exec.Cmd
	url    string
	client *http.Client
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startCedard execs the server, waits for /healthz, and sends the
// warm-up request. The returned duration is that whole set-up.
func startCedard(bin string, l *cedardLoad) (*cedardServer, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	t0 := time.Now()
	cmd := exec.Command(bin, "-addr", addr, "-workers", strconv.Itoa(serverWorkers))
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start cedard: %w", err)
	}
	s := &cedardServer{cmd: cmd, url: "http://" + addr, client: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: connections, MaxIdleConnsPerHost: connections, DisableCompression: true},
		Timeout:   60 * time.Second,
	}}
	if err := s.awaitHealthy(t0.Add(30 * time.Second)); err != nil {
		s.stop()
		return nil, 0, err
	}
	w := batchOf(l, []int{-1})
	if status, data, err := s.post(w.body); err != nil || status != http.StatusOK {
		s.stop()
		return nil, 0, fmt.Errorf("cedard warm-up: status %d: %v %s", status, err, data)
	} else if _, _, err := l.check(w, data); err != nil {
		s.stop()
		return nil, 0, fmt.Errorf("cedard warm-up: %w", err)
	}
	return s, time.Since(t0), nil
}

func (s *cedardServer) awaitHealthy(deadline time.Time) error {
	for {
		resp, err := s.client.Get(s.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cedard never answered /healthz: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (s *cedardServer) post(body []byte) (int, []byte, error) {
	resp, err := s.client.Post(s.url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// counters scrapes /metrics into path → value.
func (s *cedardServer) counters() (map[string]int64, error) {
	resp, err := s.client.Get(s.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 {
			if v, err := strconv.ParseInt(f[1], 10, 64); err == nil {
				out[f[0]] = v
			}
		}
	}
	return out, sc.Err()
}

// stop kills the server and waits for it; stopping it again does
// nothing.
func (s *cedardServer) stop() {
	if s.cmd.ProcessState == nil {
		s.cmd.Process.Kill()
		s.cmd.Wait()
	}
}

// batch is one pre-encoded POST /jobs body. specs index the population;
// -1 stands for the warm-up spec.
type batch struct {
	specs []int
	body  []byte
}

// cedardLoad checks responses against goldens. A result already
// verified is remembered as raw bytes, so repeats cost a comparison
// instead of a decode.
type cedardLoad struct {
	pop  []job.Spec
	fps  []string
	gold goldens

	mu       sync.Mutex
	verified map[string][]byte
}

func newCedardLoad(pop []job.Spec, gold goldens) *cedardLoad {
	l := &cedardLoad{pop: pop, gold: gold, fps: make([]string, len(pop)), verified: map[string][]byte{}}
	for i, s := range pop {
		l.fps[i] = mustFingerprint(s)
	}
	return l
}

func (l *cedardLoad) spec(i int) (job.Spec, string) {
	if i < 0 {
		return cedardWarmup, mustFingerprint(cedardWarmup)
	}
	return l.pop[i], l.fps[i]
}

func batchOf(l *cedardLoad, specs []int) batch {
	body := make([]job.Spec, len(specs))
	for k, i := range specs {
		body[k], _ = l.spec(i)
	}
	data, err := json.Marshal(body)
	if err != nil {
		panic(err) // a []job.Spec always encodes
	}
	return batch{specs: specs, body: data}
}

// check verifies one 200 response body for b and returns the population
// indices the server simulated for it (cached=false) and their total
// simulated cycles.
func (l *cedardLoad) check(b batch, data []byte) (misses []int, cycles int64, err error) {
	var resps []struct {
		Fingerprint string          `json:"fingerprint"`
		Cached      bool            `json:"cached"`
		Result      json.RawMessage `json:"result"`
		Error       string          `json:"error"`
	}
	if err := json.Unmarshal(data, &resps); err != nil {
		return nil, 0, fmt.Errorf("decode response: %w", err)
	}
	if len(resps) != len(b.specs) {
		return nil, 0, fmt.Errorf("%d responses for a batch of %d", len(resps), len(b.specs))
	}
	for k, jr := range resps {
		i := b.specs[k]
		s, fp := l.spec(i)
		if jr.Error != "" {
			return nil, 0, fmt.Errorf("%s: %s", specLabel(s), jr.Error)
		}
		if jr.Fingerprint != fp {
			return nil, 0, fmt.Errorf("%s: fingerprint %s, want %s", specLabel(s), jr.Fingerprint, fp)
		}
		l.mu.Lock()
		prev, seen := l.verified[fp]
		l.mu.Unlock()
		if !seen || !bytes.Equal(prev, jr.Result) {
			var r job.Result
			if err := json.Unmarshal(jr.Result, &r); err != nil {
				return nil, 0, fmt.Errorf("%s: decode result: %w", specLabel(s), err)
			}
			if err := l.gold.verify(fp, s, r); err != nil {
				return nil, 0, err
			}
			if !seen {
				l.mu.Lock()
				l.verified[fp] = jr.Result
				l.mu.Unlock()
			}
		}
		if !jr.Cached && i >= 0 {
			misses = append(misses, i)
			cycles += l.gold[fp].Cycles
		}
	}
	return misses, cycles, nil
}

// sampler draws the cedard-sweeps stream. A fixed permutation of the
// population, the same for every seed, splits it into hot specs, ranked
// for Zipf popularity, and cold specs. The seed draws batch sizes, hot
// specs, and the order in which the cold specs arrive.
type sampler struct {
	r    *rand.Rand
	zipf *rand.Zipf
	hot  []int // population indices by popularity rank
	cold []int // population indices in arrival order
}

func newSampler(popSize int, seed int64) *sampler {
	split := rand.New(rand.NewSource(popularitySeed)).Perm(popSize)
	r := rand.New(rand.NewSource(seed))
	s := &sampler{r: r, zipf: rand.NewZipf(r, zipfS, 1, hotSpecs-1), hot: split[:hotSpecs]}
	for _, k := range r.Perm(popSize - hotSpecs) {
		s.cold = append(s.cold, split[hotSpecs+k])
	}
	return s
}

// batch draws one batch of Zipf-drawn hot specs, admitted by allow when
// it is set. A last that is not negative replaces the final spec.
func (s *sampler) batch(l *cedardLoad, last int, allow func(int) bool) batch {
	specs := make([]int, s.r.Intn(maxBatch)+1)
	for k := range specs {
		for {
			specs[k] = s.hot[s.zipf.Uint64()]
			if allow == nil || allow(specs[k]) {
				break
			}
		}
	}
	if last >= 0 {
		specs[len(specs)-1] = last
	}
	return batchOf(l, specs)
}

// last picks the forced final spec of open-loop batch i: the ramp
// sends every hot spec once, so the window meets no hot misses, and
// every coldEvery-th window batch carries the next cold spec, each cold
// spec once before any repeats. It returns -1 for a plain batch.
func (s *sampler) last(i, nRamp int) int {
	switch {
	case i < nRamp && i < len(s.hot):
		return s.hot[i]
	case i >= nRamp && (i-nRamp)%coldEvery == 0:
		return s.cold[(i-nRamp)/coldEvery%len(s.cold)]
	}
	return -1
}

// reqTiming is one open-loop request: when it was due, when a sender
// took it, and when its response was complete.
type reqTiming struct{ due, start, end time.Time }

// openLoop sends len(offsets) requests, request i due at start+offsets[i],
// whatever the state of earlier ones, over conns senders. A request
// waiting for a free sender is late by the system's doing, and its
// latency counts that wait; late reports only how far the generator
// itself ran behind the schedule.
func openLoop(start time.Time, offsets []time.Duration, conns int, send func(sender, i int)) (tim []reqTiming, late []time.Duration) {
	n := len(offsets)
	tim = make([]reqTiming, n)
	late = make([]time.Duration, n)
	queue := make(chan int, n) // sized to the sends, so the generator never blocks
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range queue {
				tim[i].start = time.Now()
				send(c, i)
				tim[i].end = time.Now()
			}
		}(c)
	}
	for i, off := range offsets {
		due := start.Add(off)
		time.Sleep(time.Until(due))
		tim[i].due = due
		late[i] = time.Since(due)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return tim, late
}

// cedardOutcome is what one pass of the cedard load measured.
type cedardOutcome struct {
	latMs, hitMs, missMs, lateMs []float64 // timed window only
	respBytes, respJobs          int64
	missed                       []int // population indices simulated, sorted
	missCycles                   int64 // their simulated cycles
	serverCPU                    time.Duration
	counterDelta                 map[string]int64
	capacity                     float64 // closed-loop jobs/s
	traceOverhead                float64 // untraced over traced capacity
	attempted, failed            int
	rssMB                        float64 // median 1 s peak over the open loop
}

// run drives a started server, then stops it: the open-loop stream at
// openRate for ramp+window (only the window's batches are timed), then
// a closed loop of all-hit batches for closed. Server CPU time, the
// specs the server simulated and its counter deltas cover the whole
// open loop. With tr set, the closed loop's second half is traced and
// requests are recorded as spans.
func (l *cedardLoad) run(srv *cedardServer, seed int64, ramp, window, closed time.Duration, speed *hostSpeed, tr *tracer) (*cedardOutcome, error) {
	defer srv.stop()
	out := &cedardOutcome{}
	smp := newSampler(len(l.pop), seed)
	nRamp := int(openRate * ramp.Seconds())
	n := nRamp + max(1, int(openRate*window.Seconds()))
	open := make([]batch, n)
	for i := range open {
		open[i] = smp.batch(l, smp.last(i, nRamp), nil)
	}
	offsets := make([]time.Duration, n)
	for i := range offsets {
		offsets[i] = time.Duration(float64(i) / openRate * float64(time.Second))
	}

	before, err := srv.counters()
	if err != nil {
		return nil, err
	}
	pid := strconv.Itoa(srv.cmd.Process.Pid)
	cpu0, err := cpuTime(pid)
	if err != nil {
		return nil, err
	}
	rss := watchRSS(pid)
	openStart := time.Now()
	type result struct {
		sender int
		misses []int
		cycles int64
		size   int
		err    error
	}
	results := make([]result, n)
	tim, late := openLoop(time.Now(), offsets, connections, func(sender, i int) {
		r := &results[i]
		r.sender = sender
		status, data, err := srv.post(open[i].body)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, data)
		}
		if err == nil {
			r.misses, r.cycles, err = l.check(open[i], data)
		}
		r.size, r.err = len(data), err
	})
	if out.rssMB, err = rss.finish(); err != nil {
		return nil, err
	}
	cpu1, err := cpuTime(pid)
	if err != nil {
		return nil, err
	}
	after, err := srv.counters()
	if err != nil {
		return nil, err
	}
	out.serverCPU = time.Duration(float64(cpu1-cpu0) / speed.over(openStart, time.Now()))
	out.counterDelta = map[string]int64{}
	for k, v := range after {
		out.counterDelta[k] = v - before[k]
	}

	done := map[int]bool{}
	for i, r := range results {
		out.attempted++
		if r.err != nil {
			out.failed++
			fmt.Fprintln(os.Stderr, "bench: FAIL:", r.err)
			continue
		}
		t := tim[i]
		f := speed.at(t.end)
		ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 / f }
		out.lateMs = append(out.lateMs, ms(late[i]))
		out.missCycles += r.cycles
		out.missed = append(out.missed, r.misses...)
		for _, s := range open[i].specs {
			done[s] = true
		}
		tr.add("POST /jobs", "cmd/cedard", 1+r.sender,
			spanArg{ID: int64(i), Label: fmt.Sprintf("open batch of %d, %d simulated", len(open[i].specs), len(r.misses))},
			t.start, t.end)
		if i < nRamp {
			continue
		}
		out.latMs = append(out.latMs, ms(t.end.Sub(t.due)))
		if len(r.misses) == 0 {
			out.hitMs = append(out.hitMs, ms(t.end.Sub(t.start)))
		} else {
			out.missMs = append(out.missMs, ms(t.end.Sub(t.start)))
		}
		out.respBytes += int64(r.size)
		out.respJobs += int64(len(open[i].specs))
	}
	sort.Ints(out.missed)
	if !done[smp.hot[0]] {
		return nil, errors.New("cedard: the most popular spec never completed in the open loop")
	}

	pool := make([]batch, 1024)
	for i := range pool {
		pool[i] = smp.batch(l, -1, func(i int) bool { return done[i] })
	}
	if tr == nil {
		out.capacity = l.closedLoop(srv, pool, closed, speed, nil, out)
	} else {
		out.capacity = l.closedLoop(srv, pool, closed/2, speed, nil, out)
		out.traceOverhead = out.capacity / l.closedLoop(srv, pool, closed/2, speed, tr, out)
	}
	return out, nil
}

// closedLoop sends batches from pool back to back on every connection
// for dur; every job must come from the cache. It returns jobs/s at
// reference speed: each batch counts at the host speed as it ended, and
// the rate is the median over closedSlice slices, so a stall in one
// slice does not move it.
func (l *cedardLoad) closedLoop(srv *cedardServer, pool []batch, dur time.Duration, speed *hostSpeed, tr *tracer, out *cedardOutcome) float64 {
	var mu sync.Mutex
	slices := make([]float64, max(1, int(dur/closedSlice)))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(len(slices)) * closedSlice)
	for c := 0; c < connections; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c; time.Now().Before(deadline); k += connections {
				b := pool[k%len(pool)]
				t0 := time.Now()
				status, data, err := srv.post(b.body)
				t1 := time.Now()
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d: %s", status, data)
				}
				var misses []int
				if err == nil {
					misses, _, err = l.check(b, data)
				}
				if err == nil && len(misses) > 0 {
					err = fmt.Errorf("closed loop: %d jobs were simulated, want all cached", len(misses))
				}
				f := speed.at(t1)
				mu.Lock()
				out.attempted++
				if err != nil {
					out.failed++
					fmt.Fprintln(os.Stderr, "bench: FAIL:", err)
				} else if t1.Before(deadline) {
					slices[t1.Sub(start)/closedSlice] += float64(len(b.specs)) * f
				}
				tr.add("POST /jobs", "cmd/cedard", 1+c, spanArg{ID: int64(k), Label: fmt.Sprintf("hit batch of %d", len(b.specs))}, t0, t1)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return median(slices) / closedSlice.Seconds()
}
