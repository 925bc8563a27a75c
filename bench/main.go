// Command bench is the repository benchmark: four workloads that drive
// the simulator only through its public entry points (job/runner's
// Prepare and Execute, job.Spec and job.Service, and a real cedard over
// HTTP), check every simulated result against a naive-engine golden,
// and print end-to-end metrics (untraced) or per-layer metrics (traced).
//
//	bash bench/run.sh --workload short-sweep --seed 1 --seconds 20 --trace 0
//
// run.sh builds this program and cmd/cedard from the checkout and runs
// it from the checkout root. Without --workload it runs all four. The
// last line of a single-workload run is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd metrics come from untraced runs (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"host_ns_per_sim_cycle", "ns", "lower", 0.25},
	{"req_p50_ms", "ms", "lower", 0.25},
	{"req_p99_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.10},
}

// perLayer metrics come from traced runs (--trace 1).
var perLayer = []metricDef{
	{"runner.prepare_ms", "ms", "lower", 0},
	{"runner.execute_ms", "ms", "lower", 0},
	{"runner.prepare_share", "ratio", "lower", 0},
	{"telemetry.registry_build_ms", "ms", "lower", 0},
	{"telemetry.registry_fingerprint_ms", "ms", "lower", 0},
	{"job.fingerprint_us", "us", "lower", 0},
	{"job.decode_us", "us", "lower", 0},
	{"job.service_hit_us", "us", "lower", 0},
	{"cedard.hit_ms", "ms", "lower", 0},
	{"cedard.miss_ms", "ms", "lower", 0},
	{"cedard.resp_kb", "kB", "lower", 0},
	{"cedard.misses", "count", "lower", 0},
	{"cedard.joins", "count", "higher", 0},
	{"cedard.executions", "count", "lower", 0},
	{"cedard.gen_late_ms", "ms", "lower", 0},
	{"sim.cycles", "count", "lower", 0},
	{"sim.executed_cycles", "count", "lower", 0},
	{"sim.fast_forward_frac", "ratio", "higher", 0},
	{"sim.skipped_ticks", "count", "higher", 0},
	{"sim.dormant_skips", "count", "higher", 0},
	{"sim.ns_per_executed_cycle", "ns", "lower", 0},
	{"sim.wake_ns", "ns", "lower", 0},
	{"network.packets", "count", "lower", 0},
	{"network.words", "count", "lower", 0},
	{"network.accept_ratio", "ratio", "higher", 0},
	{"network.ns_per_packet_light", "ns", "lower", 0},
	{"network.ns_per_packet_saturated", "ns", "lower", 0},
	{"gmem.served", "count", "lower", 0},
	{"gmem.busy_frac", "ratio", "lower", 0},
	{"gmem.sync_ops", "count", "lower", 0},
	{"gmem.ns_per_access_aliased", "ns", "lower", 0},
	{"cache.accesses", "count", "lower", 0},
	{"cache.hit_ratio", "ratio", "higher", 0},
	{"cache.bank_stalls", "count", "lower", 0},
	{"cache.ns_per_access", "ns", "lower", 0},
	{"prefetch.issued", "count", "lower", 0},
	{"prefetch.stall_cycles", "count", "lower", 0},
	{"prefetch.retries", "count", "lower", 0},
	{"ce.ops_done", "count", "lower", 0},
	{"ce.flops", "count", "lower", 0},
	{"ce.busy_frac", "ratio", "higher", 0},
	{"ce.wait_frac", "ratio", "lower", 0},
	{"cluster.ip_requests", "count", "lower", 0},
	{"cluster.ip_busy_cycles", "count", "lower", 0},
	{"xylem.io_parks", "count", "lower", 0},
	{"bench.trace_overhead", "ratio", "lower", 0},
}

// setupRepeats is how many times an untraced run sets its subject up;
// setup_s is the median.
const setupRepeats = 9

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	jobs     int
	cedard   string
	traceDir string
}

func (o options) dur() time.Duration { return time.Duration(o.seconds) * time.Second }

// probeBudget is the time each isolated layer probe may take.
func (o options) probeBudget() time.Duration {
	return min(250*time.Millisecond, o.dur()/80)
}

func main() {
	var o options
	child := flag.Bool("child", false, "run as a job workload's child process (internal)")
	updateGolden := flag.String("update-golden", "", "regenerate goldens on the naive engine into this file, then exit")
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed draws the same inputs")
	flag.IntVar(&o.seconds, "seconds", 25, "measured seconds per run")
	flag.IntVar(&o.trace, "trace", 0, "1 for a traced run printing per-layer metrics, 0 for end-to-end metrics")
	flag.IntVar(&o.jobs, "jobs", 0, "job-list length of a job workload; 0 keeps the workload's own")
	flag.StringVar(&o.cedard, "cedard", ".bench_build/cedard", "cedard binary")
	flag.StringVar(&o.traceDir, "trace-dir", ".bench_build/traces", "directory for trace_event files of traced runs")
	flag.Parse()
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) || o.seed < 0 || o.jobs < 0 {
		fmt.Fprintln(os.Stderr, "bench: need --seconds >= 1, --trace 0 or 1, and --seed and -jobs >= 0")
		os.Exit(2)
	}
	var err error
	switch {
	case *updateGolden != "":
		err = updateGoldens(*updateGolden)
	case *child:
		err = childMain(o)
	case o.workload == "all":
		for _, w := range workloads {
			o.workload = w.name
			if err = runAndReport(o); err != nil {
				break
			}
		}
	default:
		err = runAndReport(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// measurement is what a run hands to the report; a job workload's
// child sends it to the parent as one JSON line.
type measurement struct {
	Metrics   map[string]float64 `json:"metrics"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Notes     []string           `json:"notes"`
	Spans     []span             `json:"spans"`
}

func runAndReport(o options) error {
	w, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	var m *measurement
	hs := startHostSpeed()
	defer hs.stopSampling()
	start := time.Now()
	if w.isCedard() {
		m, err = runCedardWorkload(o, w, hs)
	} else {
		m, err = runJobWorkload(o, w, hs)
	}
	if err != nil {
		return err
	}
	host := currentHost(o.workload, o.seed, o.seconds, o.trace)
	host.SpeedFactor = hs.over(start, time.Now())
	if o.trace == 1 {
		path := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
		if err := writeTrace(path, host, m.Spans); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		m.Notes = append(m.Notes, "trace_event file: "+path)
	}
	return report(os.Stdout, host, o, m)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human-readable table and, last, the result line.
func report(w io.Writer, host hostInfo, o options, m *measurement) error {
	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
	}
	hostLine, err := json.Marshal(host)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "bench %s seed %d: %d s, trace %d; host times at reference speed (run's speed factor %.3g)\nhost %s\n",
		o.workload, o.seed, o.seconds, o.trace, host.SpeedFactor, hostLine)
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: m.Failed == 0, Attempted: m.Attempted, Failed: m.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := m.Metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s not measured (got %v)", d.Name, v)
		}
		out.Metrics[d.Name] = metricValue{v, d.Unit}
		fmt.Fprintf(w, "  %-36s %16.6g %s\n", d.Name, v, d.Unit)
	}
	fmt.Fprintf(w, "  %-36s %16d/%d\n", "failed/attempted", m.Failed, m.Attempted)
	for _, n := range m.Notes {
		fmt.Fprintln(w, "note:", n)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// childMain sets a job workload up, says "ready" on stdout, and runs it
// only if the parent answers "go"; a closed stdin ends a set-up-only
// child.
func childMain(o options) error {
	w, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	if w.isCedard() {
		return fmt.Errorf("%s runs no child", w.name)
	}
	gold, err := loadGoldens()
	if err != nil {
		return err
	}
	hs := startHostSpeed()
	defer hs.stopSampling()
	d := newJobDriver(w.population, gold, hs)
	n := w.jobs
	if o.jobs > 0 {
		n = o.jobs
	}
	list := drawList(w.population, n, o.seed)
	if err := d.warmup(); err != nil {
		return err
	}
	fmt.Println("ready")
	if line, _ := bufio.NewReader(os.Stdin).ReadString('\n'); line != "go\n" {
		return nil
	}
	res := measurement{Metrics: map[string]float64{}}
	if o.trace == 0 {
		rss := watchRSS("self")
		ph := d.runList(list, o.dur(), nil)
		if res.Metrics["peak_rss_mb"], err = rss.finish(); err != nil {
			return err
		}
		st := aggregate(list, ph.times)
		res.Metrics["jobs_per_s"] = st.jobsPerSecond()
		res.Metrics["host_ns_per_sim_cycle"] = st.hostNsPerSimCycle()
		p50, _ := percentile(st.perJobWalls, 0.50)
		p99, _ := percentile(st.perJobWalls, 0.99)
		res.Metrics["req_p50_ms"] = p50 / 1e6
		res.Metrics["req_p99_ms"] = p99 / 1e6
		res.Notes = append(res.Notes, fmt.Sprintf("%d jobs run; metrics are for a list of %d jobs over %d specs",
			ph.jobs, len(list), len(distinct(list))))
	} else {
		plain := d.runList(list, o.dur()/2, nil)
		tr := newTracer(pidChild)
		traced := d.runList(list, o.dur()/2, tr)
		res.Metrics = layerMetrics(list, traced)
		res.Metrics["bench.trace_overhead"] = aggregate(list, traced.times).wallNs / aggregate(list, plain.times).wallNs
		probes, err := layerProbes(o.probeBudget(), hs)
		if err != nil {
			return err
		}
		for k, v := range probes {
			res.Metrics[k] = v
		}
		res.Spans = tr.spans
		res.Notes = append(res.Notes, fmt.Sprintf("%d untraced and %d traced jobs run", plain.jobs, traced.jobs))
	}
	res.Attempted, res.Failed = d.attempted, d.failed
	return json.NewEncoder(os.Stdout).Encode(res)
}

// childProc is a job workload's child process.
type childProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
}

// startChild execs a child and waits for its "ready"; the duration is
// the child's set-up time.
func startChild(o options) (*childProc, time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(self, "-child", "-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(o.trace), "-jobs", strconv.Itoa(o.jobs))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, 0, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	c := &childProc{cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout)}
	line, err := c.out.ReadString('\n')
	setup := time.Since(t0)
	if line != "ready\n" {
		c.stdin.Close()
		c.cmd.Process.Kill()
		werr := c.cmd.Wait()
		return nil, 0, fmt.Errorf("child set-up failed: %q %v %v", line, err, werr)
	}
	return c, setup, nil
}

// finish lets the child run (run) or just exit, and waits for it.
func (c *childProc) finish(run bool) (*measurement, error) {
	res := &measurement{}
	var err error
	if run {
		if _, err = io.WriteString(c.stdin, "go\n"); err == nil {
			var line string
			if line, err = c.out.ReadString('\n'); err == nil {
				err = json.Unmarshal([]byte(line), res)
			}
		}
	}
	c.stdin.Close()
	if err != nil {
		c.cmd.Process.Kill()
	}
	if werr := c.cmd.Wait(); err == nil && werr != nil {
		err = fmt.Errorf("child: %w", werr)
	}
	return res, err
}

func runJobWorkload(o options, w *workloadDef, speed *hostSpeed) (*measurement, error) {
	repeats := setupRepeats
	if o.trace == 1 {
		repeats = 1
	}
	var setups []float64
	var m *measurement
	for k := 0; k < repeats; k++ {
		c, setup, err := startChild(o)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds()/speed.now())
		if m, err = c.finish(k == repeats-1); err != nil {
			return nil, err
		}
	}
	if o.trace == 0 {
		m.Metrics["setup_s"] = median(setups)
		return m, nil
	}
	// The cmd/cedard layer on a job workload: a short cedard-sweeps pass.
	probe, err := cedardPass(o, max(2*time.Second, min(3*time.Second, o.dur()/8)), speed)
	if err != nil {
		return nil, err
	}
	for k, v := range probe.Metrics {
		m.Metrics[k] = v
	}
	m.Attempted += probe.Attempted
	m.Failed += probe.Failed
	m.Spans = append(m.Spans, probe.Spans...)
	m.Notes = append(m.Notes, "cedard.* come from a short cedard-sweeps pass after the workload")
	return m, nil
}

// cedardPass starts a fresh server and runs the cedard load against it
// for total, returning the cmd/cedard layer metrics.
func cedardPass(o options, total time.Duration, speed *hostSpeed) (*measurement, error) {
	w, err := workloadByName(cedardWorkload)
	if err != nil {
		return nil, err
	}
	gold, err := loadGoldens()
	if err != nil {
		return nil, err
	}
	l := newCedardLoad(w.population, gold)
	srv, _, err := startCedard(o.cedard, l)
	if err != nil {
		return nil, err
	}
	tr := newTracer(pidClient)
	ramp, window, closed := cedardPhases(total)
	out, err := l.run(srv, o.seed, ramp, window, closed, speed, tr)
	if err != nil {
		return nil, err
	}
	return &measurement{Metrics: cedardLayerMetrics(out), Attempted: out.attempted, Failed: out.failed, Spans: tr.spans}, nil
}

func cedardLayerMetrics(out *cedardOutcome) map[string]float64 {
	late, _ := percentile(out.lateMs, tailQuantile(len(out.lateMs)))
	return map[string]float64{
		"cedard.hit_ms":      median(out.hitMs),
		"cedard.miss_ms":     median(out.missMs),
		"cedard.resp_kb":     float64(out.respBytes) / float64(out.respJobs) / 1e3,
		"cedard.misses":      float64(out.counterDelta["cedard/cache/misses"]),
		"cedard.joins":       float64(out.counterDelta["cedard/cache/joins"]),
		"cedard.executions":  float64(out.counterDelta["cedard/pool/executions"]),
		"cedard.gen_late_ms": late,
	}
}

func runCedardWorkload(o options, w *workloadDef, speed *hostSpeed) (*measurement, error) {
	gold, err := loadGoldens()
	if err != nil {
		return nil, err
	}
	l := newCedardLoad(w.population, gold)
	repeats := setupRepeats
	if o.trace == 1 {
		repeats = 1
	}
	var setups []float64
	var srv *cedardServer
	for k := 0; k < repeats; k++ {
		s, setup, err := startCedard(o.cedard, l)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds()/speed.now())
		if k < repeats-1 {
			s.stop()
			continue
		}
		srv = s
	}
	var tr *tracer
	if o.trace == 1 {
		tr = newTracer(pidClient)
	}
	ramp, window, closed := cedardPhases(o.dur())
	out, err := l.run(srv, o.seed, ramp, window, closed, speed, tr)
	if err != nil {
		return nil, err
	}
	m := &measurement{Metrics: map[string]float64{}, Attempted: out.attempted, Failed: out.failed}
	m.Notes = append(m.Notes, fmt.Sprintf("%d timed open-loop batches at %g/s, %d of them all hits; %d specs simulated over the open loop",
		len(out.latMs), openRate, len(out.hitMs), len(out.missed)))
	if o.trace == 0 {
		p50, _ := percentile(out.latMs, 0.50)
		p99, ok := percentile(out.latMs, 0.99)
		if !ok {
			m.Notes = append(m.Notes, fmt.Sprintf("req_p99_ms rests on %d samples, fewer than %d beyond p99: run longer", len(out.latMs), minBeyond))
		}
		m.Metrics["setup_s"] = median(setups)
		m.Metrics["jobs_per_s"] = out.capacity
		m.Metrics["host_ns_per_sim_cycle"] = float64(out.serverCPU.Nanoseconds()) / float64(out.missCycles)
		m.Metrics["req_p50_ms"] = p50
		m.Metrics["req_p99_ms"] = p99
		m.Metrics["peak_rss_mb"] = out.rssMB
		return m, nil
	}
	m.Metrics = cedardLayerMetrics(out)
	m.Metrics["bench.trace_overhead"] = out.traceOverhead
	// The server's simulations, replayed in-process: the simulator is
	// deterministic, so the replay does exactly the server's work and
	// yields its layer counts and timings.
	d := newJobDriver(w.population, gold, speed)
	ph := d.runList(out.missed, 0, tr)
	for k, v := range layerMetrics(out.missed, ph) {
		m.Metrics[k] = v
	}
	m.Attempted += d.attempted
	m.Failed += d.failed
	probes, err := layerProbes(o.probeBudget(), speed)
	if err != nil {
		return nil, err
	}
	for k, v := range probes {
		m.Metrics[k] = v
	}
	m.Spans = tr.spans
	return m, nil
}
