// Package cedarfort is the runtime analog of CEDAR FORTRAN's parallel
// constructs, executing on the simulated machine.
//
// The language gives a programmer explicit access to the key Cedar
// features; this runtime reproduces the constructs whose costs the paper
// measures:
//
//   - XDOALL: iterations scheduled over every CE in the machine through
//     run-time library functions working through global memory, with a
//     typical loop startup latency of ~90 µs and an iteration fetch of
//     ~30 µs — unless the Cedar synchronization instructions are used
//     for loop self-scheduling, which reduces the fetch to a single
//     Test-And-Operate round trip plus a small software cost.
//   - SDOALL: each iteration scheduled on an entire cluster, starting on
//     one CE; the other CEs idle until a CDOALL inside the body.
//     Successive SDOALLs can be scheduled with cluster affinity so that
//     loops operate on data previously distributed to cluster memories.
//   - CDOALL: iterations spread over the cluster through the concurrency
//     control bus — a few microseconds to start, with cheap bus
//     self-scheduling.
//
// Loop bodies are Go callbacks that emit micro-operations; the runtime
// builds the per-CE programs, dispatches them, and runs the machine to
// quiescence, returning elapsed simulated cycles.
package cedarfort

import (
	"fmt"
	"time"

	"repro/internal/ce"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/network"
	"repro/internal/sim"
)

// Schedule selects iteration assignment.
type Schedule int

// Scheduling disciplines for the DOALL variants (both are provided by
// run-time library options in CEDAR FORTRAN).
const (
	// SelfScheduled assigns iterations dynamically: a shared counter in
	// global memory for XDOALL/SDOALL, the concurrency bus for CDOALL.
	SelfScheduled Schedule = iota
	// Static assigns iteration i to processor i mod P at loop start.
	Static
)

// The runtime's costs, from Section 3.2 of the paper. Costs given in
// microseconds are rounded up to whole cycles, as sim.FromDuration does.
const (
	// XDOALLStartup is the machine-wide loop startup latency (90 µs).
	XDOALLStartup = sim.Cycle((90*time.Microsecond + sim.CycleTime - 1) / sim.CycleTime)
	// SDOALLStartup is the startup of a cluster-scheduled loop: 90 µs,
	// since it uses the same global-memory mechanism.
	SDOALLStartup = XDOALLStartup
	// IterFetchSlow is the per-iteration fetch cost through the runtime
	// library without Cedar synchronization instructions (30 µs).
	IterFetchSlow = sim.Cycle((30*time.Microsecond + sim.CycleTime - 1) / sim.CycleTime)
	// IterFetchFast is the software cost that remains when Cedar
	// Test-And-Operate performs the claim (4 µs); the network round trip
	// of the claim itself is simulated, not charged here.
	IterFetchFast = sim.Cycle((4*time.Microsecond + sim.CycleTime - 1) / sim.CycleTime)
	// StaticIterCycles is the loop-control cost per statically scheduled
	// iteration.
	StaticIterCycles sim.Cycle = 4
	// SpinBackoff is the delay between barrier/spin polls of a global
	// word.
	SpinBackoff sim.Cycle = 20
)

// Config holds the runtime's one design choice.
type Config struct {
	// UseCedarSync selects the fast claim path (the paper's "W/o Cedar
	// Synchronization" column corresponds to false).
	UseCedarSync bool
}

// DefaultConfig returns the runtime with Cedar synchronization enabled.
func DefaultConfig() Config { return Config{UseCedarSync: true} }

// PhaseObserver receives workload phase-boundary marks from the
// runtime: DOALL start/end and barrier entry/exit. The telemetry
// sampler implements it; anything else that wants phase-aligned
// measurements can too.
type PhaseObserver interface {
	PhaseStart(name string)
	PhaseEnd(name string)
}

// Runtime executes parallel constructs on a machine.
type Runtime struct {
	M   *core.Machine
	Cfg Config

	// Phases, when non-nil, is notified at workload phase boundaries.
	Phases PhaseObserver
}

func (r *Runtime) phaseStart(name string) {
	if r.Phases != nil {
		r.Phases.PhaseStart(name)
	}
}

func (r *Runtime) phaseEnd(name string) {
	if r.Phases != nil {
		r.Phases.PhaseEnd(name)
	}
}

// New returns a runtime for m.
func New(m *core.Machine, cfg Config) *Runtime {
	return &Runtime{M: m, Cfg: cfg}
}

// Ctx is the view a loop body has of the processor running it.
type Ctx struct {
	// R is the runtime; CE the executing processor; Cluster its cluster.
	R       *Runtime
	CE      *ce.CE
	Cluster *cluster.Cluster
	// G receives the body's micro-operations.
	G *isa.Gen

	pendingCDOALL []cdoallReq
}

// Emit appends operations to the iteration's stream.
func (c *Ctx) Emit(ops ...*isa.Op) { c.G.Emit(ops...) }

type cdoallReq struct {
	n     int
	sched Schedule
	body  func(ctx *Ctx, iter int)
}

// CDOALL schedules an inner parallel loop over the cluster's CEs via the
// concurrency control bus. It may only be called from an SDOALL body
// (the construct the language nests this way), and the operations it
// spreads run after everything the body emitted before the call;
// multiple CDOALLs in one body run in sequence. Operations emitted after
// the last CDOALL call are not supported and panic at dispatch.
func (c *Ctx) CDOALL(n int, sched Schedule, body func(ctx *Ctx, iter int)) {
	c.pendingCDOALL = append(c.pendingCDOALL, cdoallReq{n: n, sched: sched, body: body})
}

// claimCost is the software component of one dynamic iteration fetch.
func (r *Runtime) claimCost() sim.Cycle {
	if r.Cfg.UseCedarSync {
		return IterFetchFast
	}
	return IterFetchSlow
}

// requireIdle panics if a construct is started while the machine runs.
func (r *Runtime) requireIdle(what string) {
	if !r.M.Idle() {
		panic(fmt.Sprintf("cedarfort: %s started on a busy machine", what))
	}
}

// Serial advances simulated time by d cycles: a serial program section
// executing on one CE with the rest of the machine idle.
func (r *Runtime) Serial(d sim.Cycle) {
	r.M.Eng.Run(d)
}

// XDOALL runs a parallel loop of n iterations over every CE in the
// machine and returns the elapsed cycles. The body runs once per
// iteration on the claiming CE and emits that iteration's operations.
func (r *Runtime) XDOALL(n int, sched Schedule, body func(ctx *Ctx, iter int)) (sim.Cycle, error) {
	r.requireIdle("XDOALL")
	r.phaseStart("xdoall")
	start := r.M.Eng.Now()
	ces := r.M.CEs()
	switch sched {
	case SelfScheduled:
		counter := r.M.AllocGlobal(1)
		r.M.Global.StoreInt(counter, 0)
		for _, c := range ces {
			r.dispatchClaimLoop(c, counter, n, XDOALLStartup, body)
		}
	case Static:
		p := len(ces)
		for i, c := range ces {
			r.dispatchStaticLoop(c, i, p, n, XDOALLStartup, body)
		}
	default:
		return 0, fmt.Errorf("cedarfort: unknown schedule %d", sched)
	}
	end, err := r.M.RunUntilIdle(maxCycles(n))
	r.phaseEnd("xdoall")
	return end - start, err
}

// dispatchClaimLoop builds and assigns a dynamic claim-loop program.
func (r *Runtime) dispatchClaimLoop(c *ce.CE, counter uint64, n int, startup sim.Cycle, body func(ctx *Ctx, iter int)) {
	cl := r.M.Clusters[c.ID/r.M.Config().Cluster.CEs]
	started := false
	done := false
	var g *isa.Gen
	g = isa.NewGen(func(gen *isa.Gen) bool {
		if !started {
			started = true
			gen.Emit(isa.NewCompute(startup))
			return true
		}
		if done {
			return false
		}
		claim := isa.NewSync(counter, network.FetchAndAdd(1))
		claim.OnDone = func(v int64, ok bool) {
			iter := int(v)
			if iter >= n {
				done = true
				return
			}
			gen.Emit(isa.NewCompute(r.claimCost()))
			ctx := &Ctx{R: r, CE: c, Cluster: cl, G: gen}
			body(ctx, iter)
			if len(ctx.pendingCDOALL) > 0 {
				panic("cedarfort: CDOALL inside XDOALL (only SDOALL bodies may nest CDOALL)")
			}
		}
		gen.Emit(claim)
		return true
	})
	c.SetProgram(g)
}

// dispatchStaticLoop builds and assigns a statically blocked program.
func (r *Runtime) dispatchStaticLoop(c *ce.CE, id, p, n int, startup sim.Cycle, body func(ctx *Ctx, iter int)) {
	cl := r.M.Clusters[c.ID/r.M.Config().Cluster.CEs]
	started := false
	iter := id
	g := isa.NewGen(func(gen *isa.Gen) bool {
		if !started {
			started = true
			gen.Emit(isa.NewCompute(startup))
			return true
		}
		if iter >= n {
			return false
		}
		gen.Emit(isa.NewCompute(StaticIterCycles))
		ctx := &Ctx{R: r, CE: c, Cluster: cl, G: gen}
		body(ctx, iter)
		if len(ctx.pendingCDOALL) > 0 {
			panic("cedarfort: CDOALL inside XDOALL (only SDOALL bodies may nest CDOALL)")
		}
		iter += p
		return true
	})
	c.SetProgram(g)
}

// SDOALL runs a loop whose iterations are each scheduled on an entire
// cluster: the body starts on the cluster's first CE (the others idle
// until the body's CDOALLs run) and may nest CDOALL constructs. With
// affinity true, iteration i is statically assigned to cluster
// i mod clusters, the mechanism CEDAR FORTRAN uses to keep successive
// SDOALLs operating on the data already distributed to each cluster's
// memory; otherwise clusters self-schedule from a global counter.
func (r *Runtime) SDOALL(n int, affinity bool, body func(ctx *Ctx, iter int)) (sim.Cycle, error) {
	r.requireIdle("SDOALL")
	r.phaseStart("sdoall")
	start := r.M.Eng.Now()
	var counter uint64
	hasCounter := !affinity
	if hasCounter {
		counter = r.M.AllocGlobal(1)
		r.M.Global.StoreInt(counter, 0)
	}
	nclusters := len(r.M.Clusters)
	for ci, cl := range r.M.Clusters {
		leader := cl.CEs[0]
		r.dispatchSDOALLLeader(leader, cl, ci, nclusters, counter, hasCounter, n, body)
	}
	end, err := r.M.RunUntilIdle(maxCycles(n))
	r.phaseEnd("sdoall")
	return end - start, err
}

// dispatchSDOALLLeader assigns the per-cluster leader program: claim an
// iteration, run the body's leader operations, then execute any nested
// CDOALLs via the concurrency bus, then claim again.
func (r *Runtime) dispatchSDOALLLeader(leader *ce.CE, cl *cluster.Cluster, ci, nclusters int, counter uint64, hasCounter bool, n int, body func(ctx *Ctx, iter int)) {
	started := false
	done := false
	staticNext := ci // affinity schedule: ci, ci+C, ci+2C, ...

	var loop func() *isa.Gen // builds (a fresh copy of) the claim-loop program
	runIteration := func(gen *isa.Gen, iter int) {
		ctx := &Ctx{R: r, CE: leader, Cluster: cl, G: gen}
		body(ctx, iter)
		if len(ctx.pendingCDOALL) == 0 {
			return
		}
		// Chain the nested CDOALLs: each spreads gang programs over the
		// bus; a join on the last program re-dispatches the leader with
		// the continuation (the next CDOALL or a fresh claim loop).
		reqs := ctx.pendingCDOALL
		var chain func(k int)
		chain = func(k int) {
			req := reqs[k]
			gangBody := func(iter2 int, g2 *isa.Gen) {
				ictx := &Ctx{R: r, CE: nil, Cluster: cl, G: g2}
				req.body(ictx, iter2)
				if len(ictx.pendingCDOALL) > 0 {
					panic("cedarfort: CDOALL nested inside CDOALL")
				}
			}
			var progs []isa.Program
			if req.sched == Static {
				progs = cl.StaticSchedule(req.n, gangBody)
			} else {
				progs = cl.SelfSchedule(req.n, gangBody)
			}
			remaining := len(progs)
			after := func() {
				if k+1 < len(reqs) {
					chain(k + 1) // next CDOALL of this iteration
					return
				}
				leader.ForceProgram(loop()) // resume the claim loop
			}
			for i := range progs {
				progs[i] = isa.OnEnd(progs[i], func() {
					remaining--
					if remaining == 0 {
						after()
					}
				})
			}
			spread := cl.SpreadOp(progs)
			if k == 0 {
				gen.Emit(spread)
			} else {
				// Chained spreads run from the join callback: dispatch a
				// one-op program on the leader.
				leader.ForceProgram(isa.NewSeq(spread))
			}
		}
		chain(0)
	}

	loop = func() *isa.Gen {
		var g *isa.Gen
		g = isa.NewGen(func(gen *isa.Gen) bool {
			if !started {
				started = true
				gen.Emit(isa.NewCompute(SDOALLStartup))
				return true
			}
			if done {
				return false
			}
			if !hasCounter {
				if staticNext >= n {
					done = true
					return false
				}
				iter := staticNext
				staticNext += nclusters
				gen.Emit(isa.NewCompute(StaticIterCycles))
				runIteration(gen, iter)
				return true
			}
			claim := isa.NewSync(counter, network.FetchAndAdd(1))
			claim.OnDone = func(v int64, ok bool) {
				iter := int(v)
				if iter >= n {
					done = true
					return
				}
				gen.Emit(isa.NewCompute(r.claimCost()))
				runIteration(gen, iter)
			}
			gen.Emit(claim)
			return true
		})
		return g
	}
	leader.SetProgram(loop())
}

// maxCycles bounds a construct's run time for deadlock detection.
func maxCycles(n int) sim.Cycle {
	c := sim.Cycle(n)*100000 + 10_000_000
	return c
}

// Barrier is a sense-reversing barrier in global memory: a counter word
// and a generation word, advanced with Cedar synchronization
// instructions. Participants spin on the generation word with backoff —
// the multicluster barrier whose cost dominates FL052 in Section 4.2.
type Barrier struct {
	r       *Runtime
	n       int
	counter uint64
	gen     uint64
}

// NewBarrier allocates a barrier for n participants.
func (r *Runtime) NewBarrier(n int) *Barrier {
	b := &Barrier{r: r, n: n, counter: r.M.AllocGlobal(1), gen: r.M.AllocGlobal(1)}
	r.M.Global.StoreInt(b.counter, 0)
	r.M.Global.StoreInt(b.gen, 0)
	return b
}

// Emit appends one participant's barrier episode to g: arrive
// (fetch-and-add), and either release the barrier (last arriver resets
// the counter and bumps the generation) or spin on the generation word.
func (b *Barrier) Emit(g *isa.Gen) {
	arrive := isa.NewSync(b.counter, network.FetchAndAdd(1))
	arrive.OnDone = func(v int64, ok bool) {
		myGen := v / int64(b.n) // generation this arrival belongs to
		if int(v%int64(b.n)) == 0 {
			// First arriver of this generation: the barrier episode opens.
			b.r.phaseStart("barrier")
		}
		if int(v%int64(b.n)) == b.n-1 {
			// Last arriver: bump the generation word, releasing the rest.
			b.r.phaseEnd("barrier")
			g.EmitFront(isa.NewSync(b.gen, network.SyncSpec{Test: network.TestAlways, Op: network.OpAdd, Operand: 1}))
			return
		}
		// The spin loop's two operations are built once per arrival and
		// re-emitted every round: a CE only reads the operations it runs.
		backoff := isa.NewCompute(SpinBackoff)
		poll := isa.NewSync(b.gen, network.SyncSpec{Test: network.TestAlways, Op: network.OpRead})
		poll.OnDone = func(gv int64, ok bool) {
			if gv <= myGen {
				g.EmitFront(backoff, poll)
			}
		}
		g.EmitFront(poll)
	}
	g.Emit(arrive)
}
