package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/job"
	"repro/internal/job/runner"
	"repro/internal/workload"
)

// jobDriver runs population specs in-process through the public job
// path, runner.Prepare then (*Job).Execute, and checks every result
// against its golden.
type jobDriver struct {
	pop   []job.Spec
	fps   []string
	gold  goldens
	speed *hostSpeed // timings are recorded at reference speed

	attempted, failed int
	nextID            int64
}

func newJobDriver(pop []job.Spec, gold goldens, speed *hostSpeed) *jobDriver {
	d := &jobDriver{pop: pop, gold: gold, speed: speed, fps: make([]string, len(pop))}
	for i, s := range pop {
		d.fps[i] = mustFingerprint(s)
	}
	return d
}

// fail records one failed op and reports it; a run with any failure is
// not correct.
func (d *jobDriver) fail(err error) {
	d.failed++
	fmt.Fprintln(os.Stderr, "bench: FAIL:", err)
}

// phase holds what one timed pass over a job list measured.
type phase struct {
	times  []*specTimes   // per population index; nil if never run
	counts []*layerCounts // per population index, traced passes only
	jobs   int            // jobs executed
}

// run executes spec i once. With tr set, it also times the first
// Registry() call and the registry fingerprint, reads layer counts, and
// records spans.
func (d *jobDriver) run(i int, ph *phase, tr *tracer) {
	s := d.pop[i]
	d.attempted++
	ph.jobs++
	id := d.nextID
	d.nextID++
	arg := spanArg{ID: id, Label: specLabel(s)}
	child := spanArg{ID: id, Parent: "job", Label: specLabel(s)}

	t0 := time.Now()
	j, err := runner.Prepare(s)
	t1 := time.Now()
	if err != nil {
		d.fail(fmt.Errorf("%s: prepare: %w", specLabel(s), err))
		return
	}
	tr.add("runner.Prepare", "job/runner", 1, child, t0, t1)
	var regBuild time.Duration
	if tr != nil {
		r0 := time.Now()
		j.Machine.Registry()
		r1 := time.Now()
		regBuild = r1.Sub(r0)
		tr.add("core.Machine.Registry", "telemetry", 1, child, r0, r1)
		t1 = r1
	}
	res, err := j.Execute(workload.Attachments{})
	t2 := time.Now()
	if err != nil {
		d.fail(fmt.Errorf("%s: execute: %w", specLabel(s), err))
		return
	}
	tr.add("runner.Execute", "job/runner", 1, child, t1, t2)
	tr.add("job", "bench", 1, arg, t0, t2)

	if err := d.gold.verify(d.fps[i], s, res); err != nil {
		d.fail(err)
	}
	speed := d.speed.now()
	ns := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / speed }
	t := ph.times[i]
	if t == nil {
		t = &specTimes{cycles: res.Cycles}
		ph.times[i] = t
	}
	t.wall = append(t.wall, ns(t2.Sub(t0)))
	t.prepare = append(t.prepare, ns(t1.Sub(t0)))
	t.execute = append(t.execute, ns(t2.Sub(t1)))
	if tr == nil {
		return
	}
	t.regBuild = append(t.regBuild, ns(regBuild))
	f0 := time.Now()
	j.Machine.Registry().Fingerprint()
	f1 := time.Now()
	t.regFingerprint = append(t.regFingerprint, ns(f1.Sub(f0)))
	tr.add("telemetry.Registry.Fingerprint", "telemetry", 1, child, f0, f1)
	c := readCounts(j.Machine.Registry(), res.Cycles)
	if prev := ph.counts[i]; prev == nil {
		ph.counts[i] = &c
	} else if *prev != c {
		d.fail(fmt.Errorf("%s: layer counts differ between repeats of one spec", specLabel(s)))
	}
}

// runList runs the list in order, wrapping around, until dur has passed
// and every spec the list names has run at least once.
func (d *jobDriver) runList(list []int, dur time.Duration, tr *tracer) *phase {
	ph := &phase{times: make([]*specTimes, len(d.pop)), counts: make([]*layerCounts, len(d.pop))}
	need := distinct(list)
	deadline := time.Now().Add(dur)
	for k := 0; len(list) > 0 && (len(need) > 0 || time.Now().Before(deadline)); k++ {
		i := list[k%len(list)]
		d.run(i, ph, tr)
		delete(need, i)
	}
	return ph
}

// warmup runs one untimed job per kind before the first timed op.
func (d *jobDriver) warmup() error {
	for _, k := range kinds(d.pop) {
		s := warmupSpec(k)
		res, err := runner.Run(s)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", specLabel(s), err)
		}
		if err := d.gold.verify(mustFingerprint(s), s, res); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// summedCounts is Σ over the list of each entry's spec counts.
func summedCounts(list []int, counts []*layerCounts) layerCounts {
	var sum layerCounts
	for _, i := range list {
		if c := counts[i]; c != nil {
			for k := range sum {
				sum[k] += c[k]
			}
		}
	}
	return sum
}

// layerMetrics derives the job/runner, telemetry and count metrics of a
// traced pass over list.
func layerMetrics(list []int, ph *phase) map[string]float64 {
	st := aggregate(list, ph.times)
	n := float64(len(list))
	var regBuild, regFP float64
	for _, i := range list {
		if t := ph.times[i]; t != nil {
			regBuild += median(t.regBuild)
			regFP += median(t.regFingerprint)
		}
	}
	c := summedCounts(list, ph.counts)
	m := countMetrics(c)
	m["runner.prepare_ms"] = st.prepareNs / n / 1e6
	m["runner.execute_ms"] = st.executeNs / n / 1e6
	m["runner.prepare_share"] = st.prepareNs / (st.prepareNs + st.executeNs)
	m["telemetry.registry_build_ms"] = regBuild / n / 1e6
	m["telemetry.registry_fingerprint_ms"] = regFP / n / 1e6
	m["sim.ns_per_executed_cycle"] = st.executeNs / float64(c[cCycles]-c[cFastForwarded])
	return m
}
