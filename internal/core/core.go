// Package core assembles the Cedar machine — the paper's primary
// contribution: a cluster-based shared-memory multiprocessor in which
// four slightly modified Alliant FX/8 clusters (eight CEs each) are
// connected through two unidirectional multistage shuffle-exchange
// networks to a globally shared memory with per-module synchronization
// processors, with a data prefetch unit per CE.
//
// A Machine owns the simulation engine and every component, wired in the
// paper's topology:
//
//	CE/PFU --> forward network --> global memory modules
//	CE/PFU <-- reverse network <-- (replies, prefetch data, sync results)
//	CE <-> shared cluster cache <-> cluster memory   (within a cluster)
//
// Configurations of one to four clusters (8 to 32 CEs) reproduce the
// paper's measurement points. The paper's published parameters are
// constants of the packages that use them (ce.VectorStartup,
// cache.LineWords, cluster.SpreadCycles, prefetch.PageWords, NetRadix
// and the rest); Config carries only the design choices a study varies:
// the cluster count and CEs per cluster (the scalability study), the
// outstanding-request limit, switch queue depth, contentionless fabric
// and cluster-cache size and banking (the ablations), the global-memory
// size and module count (the scaled topology and the memory probes),
// the engine path, and the fault schedule.
package core

import (
	"errors"
	"fmt"
	"math/bits"
	"strconv"

	"repro/internal/cache"
	"repro/internal/ce"
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/gmem"
	"repro/internal/isa"
	"repro/internal/network"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/xylem"
)

// NetRadix is the crossbar radix of both networks: Cedar's 8x8
// switches.
const NetRadix = 8

// Config describes a Cedar machine.
type Config struct {
	// Clusters is the cluster count (Cedar: 4; the paper also measures 1,
	// 2 and 3 cluster configurations).
	Clusters int
	// Cluster holds the per-cluster parameters (CEs per cluster).
	Cluster cluster.Config
	// CE holds the processor's outstanding-request limit.
	CE ce.Config
	// Cache holds the shared-cache size and banking.
	Cache cache.Config
	// Global holds the global-memory size and module count.
	Global gmem.Config
	// NetQueueWords is the port queue depth of both networks (2 words in
	// Cedar). Their port count is derived: the smallest power of
	// NetRadix covering max(CEs, memory modules).
	NetQueueWords int
	// IdealNetwork replaces both omega networks with contentionless
	// fabrics of the same unloaded latency — the ablation that tests the
	// paper's claim that the measured degradation "is not inherent in
	// the type of network used" [Turn93].
	IdealNetwork bool
	// EngineMode selects the engine path (sim.ModeWakeCached or
	// sim.ModeNaive). Results are bit-identical in both modes (the
	// determinism tests assert it); the naive path exists as the
	// reference for those tests and for benchmarking the fast path's
	// wall-clock win. The zero value is the wake-cached default.
	EngineMode sim.EngineMode
	// Fault configures deterministic fault injection and the recovery
	// knobs (request timeouts, retry budgets, gang rescheduling). The
	// zero value disables the subsystem entirely: no injector or
	// rescheduler is built and the machine is bit-identical to a build
	// predating the fault layer.
	Fault fault.Config
}

// DefaultConfig returns the as-built, full four-cluster Cedar.
func DefaultConfig() Config {
	return Config{
		Clusters:      4,
		Cluster:       cluster.DefaultConfig(),
		CE:            ce.DefaultConfig(),
		Cache:         cache.Default(),
		Global:        gmem.Default(),
		NetQueueWords: network.DefaultQueueWords,
	}
}

// ConfigClusters returns the default configuration scaled to n clusters.
func ConfigClusters(n int) Config {
	cfg := DefaultConfig()
	cfg.Clusters = n
	return cfg
}

// ScaledConfig returns a scaled-up Cedar-like system of n clusters: the
// memory-module count grows with the processor count (one module per
// CE, preserving the as-built 24 MB/s-per-processor global bandwidth)
// and the networks deepen as the port count demands — at 8 or more
// clusters the 8x8 crossbars need three stages instead of two, raising
// the minimal round-trip latency. This is the paper's closing question
// (Practical Parallelism Test 5: technology and scalable
// reimplementability), which it left to future simulation studies.
func ScaledConfig(n int) Config {
	cfg := DefaultConfig()
	cfg.Clusters = n
	ces := n * cfg.Cluster.CEs
	cfg.Global.Modules = ces
	cfg.Global.Words = ces * (2 << 20 / 8) // keep 2 MB of global memory per CE
	return cfg
}

// Machine is an assembled Cedar.
type Machine struct {
	cfg Config

	Eng      *sim.Engine
	Fwd      *network.Network
	Rev      *network.Network
	Global   *gmem.Global
	Clusters []*cluster.Cluster

	// FaultInj and Resched are non-nil only when cfg.Fault is enabled.
	FaultInj *fault.Injector
	Resched  *xylem.Rescheduler

	// IOWait is Xylem's blocked-on-I/O table: every CE's isa.IO
	// operations park here in front of the issuing cluster's IP.
	IOWait *xylem.IOWait

	ces []*ce.CE

	// reg is the lazily built metrics registry (see Registry in
	// telemetry.go); a machine that never asks for it pays nothing.
	reg *telemetry.Registry

	globalAllocNext uint64
}

// New assembles and wires a machine.
func New(cfg Config) (*Machine, error) {
	if cfg.Clusters <= 0 {
		return nil, fmt.Errorf("core: %d clusters", cfg.Clusters)
	}
	if cfg.Cluster.CEs <= 0 {
		return nil, fmt.Errorf("core: %d CEs per cluster", cfg.Cluster.CEs)
	}
	nces := cfg.Clusters * cfg.Cluster.CEs
	ports := NetRadix
	for ports < max(nces, cfg.Global.Modules) {
		ports *= NetRadix
	}

	eng := sim.New()
	eng.SetMode(cfg.EngineMode)
	mkNet := func(name string) (*network.Network, error) {
		if cfg.IdealNetwork {
			return network.NewIdeal(name, ports, NetRadix)
		}
		return network.New(name, ports, NetRadix, cfg.NetQueueWords)
	}
	fwd, err := mkNet("forward")
	if err != nil {
		return nil, err
	}
	rev, err := mkNet("reverse")
	if err != nil {
		return nil, err
	}
	g, err := gmem.New(cfg.Global, rev)
	if err != nil {
		return nil, err
	}
	if cfg.Fault.Enabled() {
		// With faults possible, reads must be able to reissue: push the
		// request-layer recovery knobs into every CE (and, below, every
		// PFU), and build the Xylem rescheduler that catches programs
		// surrendered by check-stopped CEs.
		cfg.CE.ReadTimeout = fault.ReadTimeout
		cfg.CE.MaxRetries = fault.MaxRetries
	}
	m := &Machine{cfg: cfg, Eng: eng, Fwd: fwd, Rev: rev, Global: g, IOWait: xylem.NewIOWait(),
		Clusters: make([]*cluster.Cluster, 0, cfg.Clusters), ces: make([]*ce.CE, 0, nces)}
	if cfg.Fault.Enabled() {
		m.Resched = xylem.NewRescheduler(fault.RescheduleLatency)
	}

	// Global memory modules sink the forward network; the module index
	// is the port.
	for mod := 0; mod < g.Modules(); mod++ {
		fwd.SetSink(mod, g.Module(mod))
	}
	// Unused forward ports reject deliveries loudly.
	for p := g.Modules(); p < ports; p++ {
		port := p
		fwd.SetSink(port, network.SinkFunc(func(*network.Packet) bool {
			panic(fmt.Sprintf("core: request delivered to unused forward port %d", port))
		}))
	}

	route := func(addr uint64) int { return g.ModuleOf(addr) }

	// Build clusters, CEs and PFUs. CE's machine-wide index is its
	// network port.
	for cl := 0; cl < cfg.Clusters; cl++ {
		cacheCfg := cfg.Cache
		cacheCfg.CEs = cfg.Cluster.CEs
		ch := cache.New(cacheCfg)
		// The cluster's interactive processor is built before its CEs so
		// each CE's I/O path can park requests in front of it.
		ip := cluster.NewIP()
		ces := make([]*ce.CE, cfg.Cluster.CEs)
		for i := 0; i < cfg.Cluster.CEs; i++ {
			id := cl*cfg.Cluster.CEs + i
			u := prefetch.New(fwd, id)
			u.SetRouter(route)
			if cfg.Fault.Enabled() {
				u.SetTimeout(fault.ReadTimeout, fault.MaxRetries)
			}
			c := ce.New(cfg.CE, id, id, i, fwd, ch, u, route)
			c.SetIOPath(ceIOPath{w: m.IOWait, ip: ip})
			if m.Resched != nil {
				clIdx := cl
				c.OnSurrender = func(p isa.Program) {
					m.Resched.Surrender(eng.Now(), clIdx, p)
				}
			}
			ces[i] = c
			m.ces = append(m.ces, c)
			rev.SetSink(id, network.SinkFunc(func(p *network.Packet) bool {
				return c.Deliver(eng.Now(), p)
			}))
		}
		clu := cluster.New(cfg.Cluster, cl, ch, ces)
		clu.IPs = ip
		m.Clusters = append(m.Clusters, clu)
		if m.Resched != nil {
			targets := make([]xylem.GangTarget, len(ces))
			for i, c := range ces {
				targets[i] = c
			}
			m.Resched.AddGroup(targets...)
		}
	}
	for p := nces; p < ports; p++ {
		port := p
		rev.SetSink(port, network.SinkFunc(func(*network.Packet) bool {
			panic(fmt.Sprintf("core: reply delivered to unused reverse port %d", port))
		}))
	}

	if cfg.Fault.Enabled() {
		var mods []*gmem.Module
		for mod := 0; mod < g.Modules(); mod++ {
			mods = append(mods, g.Module(mod))
		}
		stoppable := make([]fault.StoppableCE, len(m.ces))
		for i, c := range m.ces {
			stoppable[i] = c
		}
		faultIPs := make([]fault.FaultableIP, len(m.Clusters))
		faultCaches := make([]fault.FaultableCache, len(m.Clusters))
		faultBuses := make([]fault.FaultableBus, len(m.Clusters))
		for i, clu := range m.Clusters {
			faultIPs[i] = clu.IPs
			faultCaches[i] = clu.Cache
			faultBuses[i] = clu
		}
		m.FaultInj = fault.NewInjector(cfg.Fault, fwd, rev, mods, stoppable, faultIPs, faultCaches, faultBuses)
	}

	// Tick order: CEs, prefetch units, forward network, memory modules,
	// reverse network. A CE can fire its PFU and have the first request
	// enter the forward network in the same cycle; replies injected by a
	// module this cycle start their reverse trip this cycle.
	//
	// The fault injector, when present, registers FIRST: its tick slot
	// precedes every architected component, so a fault window opened at
	// cycle t is visible to its target's own tick at t in every engine
	// mode — the property that keeps fault-injected runs mode-identical.
	// The rescheduler follows it, ahead of the CEs, so a ready task can
	// be redispatched at the start of the cycle it becomes due.
	//
	// The engine reserves a slot for each: the injector and the
	// rescheduler, a CE and a PFU per CE, an IP per cluster, the park
	// table, both networks and the memory modules.
	m.Eng.Reserve(2 + 2*nces + cfg.Clusters + 3 + g.Modules())
	if m.FaultInj != nil {
		m.Eng.Register("fault", m.FaultInj)
		m.Eng.Register("resched", m.Resched)
	}
	for _, c := range m.ces {
		m.Eng.Register("ce"+strconv.Itoa(c.ID), c)
	}
	for _, c := range m.ces {
		m.Eng.Register("pfu"+strconv.Itoa(c.ID), c.PFU())
	}
	for _, clu := range m.Clusters {
		m.Eng.Register("ip"+strconv.Itoa(clu.ID), clu.IPs)
	}
	// The park table never ticks; it is registered so a deadline hit
	// with programs still blocked on I/O names them in the diagnostics.
	m.Eng.Register("xylem/io", m.IOWait)
	m.Eng.Register("fwd", fwd)
	for mod := 0; mod < g.Modules(); mod++ {
		m.Eng.Register("gmod"+strconv.Itoa(mod), g.Module(mod))
	}
	m.Eng.Register("rev", rev)
	return m, nil
}

// ceIOPath routes a CE's isa.IO operations into Xylem's park table in
// front of the issuing cluster's interactive processor. It is the
// machine-assembly glue satisfying ce.IOPath, so the ce package needs no
// cluster dependency.
type ceIOPath struct {
	w  *xylem.IOWait
	ip *cluster.IP
}

func (p ceIOPath) SubmitIO(now sim.Cycle, words int64, formatted bool, label string, onDone func(xylem.IOCompletion)) {
	p.w.Park(now, p.ip, words, formatted, label, onDone)
}

// MustNew is New, panicking on configuration errors.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// CEs returns all computational elements in machine order (cluster 0's
// CEs first).
func (m *Machine) CEs() []*ce.CE { return m.ces }

// CE returns the CE with machine-wide index id.
func (m *Machine) CE(id int) *ce.CE { return m.ces[id] }

// NumCEs returns the total processor count.
func (m *Machine) NumCEs() int { return len(m.ces) }

// AllocGlobal reserves n words of global memory and returns the base word
// address (a bump allocator standing in for Xylem's global heap).
func (m *Machine) AllocGlobal(n uint64) uint64 {
	if m.globalAllocNext+n > uint64(m.Global.Words()) {
		panic(fmt.Sprintf("core: out of global memory (%d of %d words)", m.globalAllocNext, m.Global.Words()))
	}
	base := m.globalAllocNext
	m.globalAllocNext += n
	return base
}

// ErrGlobalFull is the error a problem too large for the machine's global
// memory gets from FitGlobal.
var ErrGlobalFull = errors.New("more than global memory holds")

// FitGlobal checks a workload's footprint before the workload allocates
// anything sized by its problem: n elements of each words apiece, plus
// extra words, must fit in global memory, so a problem the simulated
// memory cannot hold is refused before it can exhaust the host's. The
// error wraps ErrGlobalFull and is prefixed with what. The footprint is
// computed without overflow, whatever n and each are.
func (m *Machine) FitGlobal(what string, n, each, extra uint64) error {
	hi, lo := bits.Mul64(n, each)
	need, carry := bits.Add64(lo, extra, 0)
	if hi == 0 && carry == 0 && need <= uint64(m.Global.Words()) {
		return nil
	}
	return fmt.Errorf("%s n=%d needs %d words per element plus %d: %w (%d words)",
		what, n, each, extra, ErrGlobalFull, m.Global.Words())
}

// AllocGlobalReset releases all global allocations (between workloads).
func (m *Machine) AllocGlobalReset() { m.globalAllocNext = 0 }

// Idle reports whether every CE is idle and both networks are drained.
// A check-stopped CE is not idle (ce.Idle is false until repair), and
// neither is the machine while a surrendered program awaits
// redispatch — both guards keep RunUntilIdle honest under fault
// injection.
func (m *Machine) Idle() bool {
	for _, c := range m.ces {
		if !c.Idle() {
			return false
		}
	}
	if m.Resched != nil && m.Resched.Pending() > 0 {
		return false
	}
	return m.Fwd.InFlight() == 0 && m.Rev.InFlight() == 0
}

// RunUntilIdle advances the machine until Idle, returning the cycle at
// which it quiesced.
func (m *Machine) RunUntilIdle(max sim.Cycle) (sim.Cycle, error) {
	return m.Eng.RunUntil(m.Idle, max)
}

// Dispatch assigns a program to CE id (it must be idle).
func (m *Machine) Dispatch(id int, p isa.Program) { m.ces[id].SetProgram(p) }

// TotalFlops sums the floating-point operations performed by all CEs.
func (m *Machine) TotalFlops() int64 {
	var total int64
	for _, c := range m.ces {
		total += c.Flops
	}
	return total
}

// MFLOPS converts a flop count over a cycle span to the paper's rate
// metric (millions of floating-point operations per second of simulated
// time).
func MFLOPS(flops int64, cycles sim.Cycle) float64 {
	if cycles <= 0 {
		return 0
	}
	return float64(flops) / cycles.Seconds() / 1e6
}
