package xylem

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// GangTarget is a CE as the rescheduler sees it: dispatchable when idle,
// and accepting a program. ce.CE satisfies it directly.
type GangTarget interface {
	Idle() bool
	SetProgram(p isa.Program)
}

// surrenderedTask is a program given up by a check-stopped CE, waiting to
// be redispatched onto a healthy CE in the same cluster.
type surrenderedTask struct {
	cluster int
	prog    isa.Program
	readyAt sim.Cycle
}

// Rescheduler is Xylem's recovery half of gang scheduling: when a
// check-stopped CE surrenders its program, the rescheduler redispatches
// it onto the first idle CE of the same cluster after a modeled
// kernel-rescheduling latency. Gang semantics are preserved — a cluster
// task never migrates across clusters, it only moves between CEs of the
// cluster it was gang-scheduled onto.
//
// The rescheduler is a sim.IdleComponent: it sleeps until the earliest
// pending task's ready time, then polls each cycle while a ready task
// waits for an idle target. If no CE in the cluster ever frees up (for
// example, its peers spin at a barrier the surrendered program was meant
// to reach), the repaired original CE is the fallback target — spinners
// are never Idle, so repair is what guarantees eventual redispatch.
type Rescheduler struct {
	latency sim.Cycle
	groups  [][]GangTarget
	pending []surrenderedTask
	waker   sim.Waker

	// Counters.
	Redispatched int64
}

// NewRescheduler builds a rescheduler with the given redispatch latency
// (the modeled cost of the kernel noticing the check-stop and requeueing
// the cluster task).
func NewRescheduler(latency sim.Cycle) *Rescheduler {
	if latency < 0 {
		panic(fmt.Sprintf("xylem: negative reschedule latency %d", latency))
	}
	return &Rescheduler{latency: latency}
}

// AddGroup registers one cluster's CEs as a gang group and returns the
// cluster index Surrender expects.
func (r *Rescheduler) AddGroup(targets ...GangTarget) int {
	r.groups = append(r.groups, targets)
	return len(r.groups) - 1
}

// Pending reports the number of surrendered tasks not yet redispatched.
func (r *Rescheduler) Pending() int { return len(r.pending) }

// AttachWaker implements sim.WakeSink.
func (r *Rescheduler) AttachWaker(w sim.Waker) { r.waker = w }

// Surrender queues a program given up by a check-stopped CE of the given
// cluster. It is the OnSurrender entry point, so it wakes the component.
func (r *Rescheduler) Surrender(now sim.Cycle, cluster int, p isa.Program) {
	if cluster < 0 || cluster >= len(r.groups) {
		panic(fmt.Sprintf("xylem: surrender from unknown cluster %d", cluster))
	}
	r.pending = append(r.pending, surrenderedTask{cluster: cluster, prog: p, readyAt: now + r.latency})
	if r.waker != nil {
		r.waker.Wake()
	}
}

// NextEvent implements sim.IdleComponent: dormant with nothing pending
// (Surrender wakes it), else the earliest ready time — and once a task is
// ready it polls every cycle for an idle target, because targets become
// idle through their own ticks, not through any event the rescheduler
// could predict.
func (r *Rescheduler) NextEvent(now sim.Cycle) sim.Cycle {
	if len(r.pending) == 0 {
		return sim.Never
	}
	next := r.pending[0].readyAt
	for _, p := range r.pending[1:] {
		if p.readyAt < next {
			next = p.readyAt
		}
	}
	if next < now {
		return now
	}
	return next
}

// Tick redispatches every ready task whose cluster has an idle CE, in
// surrender order. Scanning CEs in fixed index order keeps the choice a
// pure function of architected state, preserving mode equivalence.
func (r *Rescheduler) Tick(now sim.Cycle) {
	kept := r.pending[:0]
	for _, task := range r.pending {
		if task.readyAt > now || !r.dispatch(task) {
			kept = append(kept, task)
		}
	}
	r.pending = kept
}

func (r *Rescheduler) dispatch(task surrenderedTask) bool {
	for _, t := range r.groups[task.cluster] {
		if t.Idle() {
			t.SetProgram(task.prog)
			r.Redispatched++
			return true
		}
	}
	return false
}

// RegisterMetrics publishes the rescheduler's counters under prefix.
func (r *Rescheduler) RegisterMetrics(reg *telemetry.Registry, prefix string) {
	s := reg.Scope(prefix)
	s.Counter("redispatched", &r.Redispatched)
	s.Gauge("pending", func() int64 { return int64(r.Pending()) })
}
