// Package fault injects deterministic transient faults into the Cedar
// model: omega-network switch-port stalls and dropped packets (prefetch
// and CE direct tags), global memory-module busy and degraded-service
// (ECC-retry) windows, CE check-stops, interactive-processor busy
// windows and delayed I/O completions, cluster-cache bank busy windows,
// and concurrency-bus stalls. Every fault is drawn from a seeded
// schedule, so a run with a given seed is exactly reproducible — and,
// because the injector is a sim.IdleComponent registered ahead of the
// architected components, the schedule lands on identical cycles in both
// engine modes, keeping fault-injected runs bit-identical across naive
// and wake-cached execution.
//
// Recovery is the other half of the model and lives with the affected
// layers: request-layer timeout and reissue in prefetch and ce (both
// scalar reads and direct vector stream elements), graceful degradation
// in gmem, deferred service in the cache banks and the concurrency bus
// (which never lose state, so waiting is the whole recovery), and
// Xylem-level gang rescheduling of a cluster task off a check-stopped
// CE. The injector only creates the hazards and repairs check-stopped
// CEs after a repair window.
package fault

import (
	"fmt"
	"strings"

	"repro/internal/ce"
	"repro/internal/gmem"
	"repro/internal/network"
	"repro/internal/prefetch"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Kind enumerates the injectable fault classes.
type Kind uint8

const (
	// NetStall blocks one network resource (an entry register, a switch
	// output port, or a delivery link) for stallWindow cycles.
	NetStall Kind = iota
	// NetDrop discards one in-flight prefetch packet (request or reply).
	// Only prefetch-tagged Read/Reply packets are droppable by this
	// kind; CEDrop covers CE direct tags, and sync packets are never
	// droppable (the Test-And-Operate at the module is not idempotent).
	NetDrop
	// MemBusy makes one memory module refuse to start service for
	// busyWindow cycles (a controller check-stop with fast restart).
	MemBusy
	// MemDegrade puts one module in an ECC-retry regime: it keeps serving
	// for degradeWindow cycles but each access costs degradePenalty extra.
	MemDegrade
	// CheckStop halts one CE at its next instruction boundary until the
	// injector repairs it RepairWindow cycles later; a held program is
	// surrendered for gang rescheduling.
	CheckStop
	// IPBusy occupies one cluster's interactive processor with non-I/O
	// work for ipBusyWindow cycles: queued transfers wait, a transfer
	// already in flight drains normally.
	IPBusy
	// IPDelay inflates the service time of the next transfer an IP
	// starts by ipDelayPenalty cycles (a slow seek / retried sector).
	IPDelay
	// CacheBankBusy monopolizes one cluster-cache bank for
	// cacheBusyWindow cycles: all of the bank's ports refuse service
	// until the window expires. Recovery is structural — every cache
	// client already retries refused accesses next cycle.
	CacheBankBusy
	// BusStall stalls one cluster's concurrency bus for busStallWindow
	// cycles: claim and concurrent-start operations beginning inside the
	// window are stretched by its remainder.
	BusStall
	// CEDrop discards one in-flight CE direct-tagged packet (a scalar
	// read or vector stream element, request or reply). Recovery is the
	// CE's inflight-queue timeout-and-reissue path; sync tags live in a
	// separate namespace and are never droppable.
	CEDrop
	numKinds
)

// String returns a short mnemonic for the kind.
func (k Kind) String() string {
	switch k {
	case NetStall:
		return "net-stall"
	case NetDrop:
		return "net-drop"
	case MemBusy:
		return "mem-busy"
	case MemDegrade:
		return "mem-degrade"
	case CheckStop:
		return "check-stop"
	case IPBusy:
		return "ip-busy"
	case IPDelay:
		return "ip-delay"
	case CacheBankBusy:
		return "cache-bank-busy"
	case BusStall:
		return "bus-stall"
	case CEDrop:
		return "ce-drop"
	}
	return "unknown"
}

// KindNames lists every fault kind's mnemonic, in declaration order —
// the vocabulary of Config.EnableOnly and cedarsim's -fault-kinds.
func KindNames() []string {
	names := make([]string, 0, int(numKinds))
	for k := Kind(0); k < numKinds; k++ {
		names = append(names, k.String())
	}
	return names
}

// Fault windows and penalties, in cycles.
const (
	stallWindow     sim.Cycle = 20  // network resource stall
	busyWindow      sim.Cycle = 30  // memory-module busy fault
	degradeWindow   sim.Cycle = 200 // memory-module ECC-retry regime
	degradePenalty  sim.Cycle = 2   // extra cost of each access while degraded
	ipBusyWindow    sim.Cycle = 400 // interactive-processor busy fault
	ipDelayPenalty  sim.Cycle = 120 // extra service time of a delayed transfer
	cacheBusyWindow sim.Cycle = 25  // cache-bank busy fault
	busStallWindow  sim.Cycle = 40  // concurrency-bus stall
)

// Recovery costs and budgets, in cycles.
const (
	// RescheduleLatency is the Xylem kernel cost of redispatching a
	// cluster task surrendered by a check-stopped CE.
	RescheduleLatency sim.Cycle = 500
	// RepairWindow is how long a check-stopped CE stays down before the
	// injector repairs it.
	RepairWindow sim.Cycle = 2000
	// ReadTimeout and MaxRetries are the request-layer recovery knobs the
	// machine builder pushes into every CE and PFU when faults are armed.
	ReadTimeout sim.Cycle = 200
	MaxRetries            = 6
)

// Config parameterizes the fault schedule.
type Config struct {
	// Seed selects the deterministic fault schedule.
	Seed uint64
	// MeanInterval is the mean gap between injected faults in cycles;
	// zero disables the subsystem entirely (no injector is built, and
	// the machine is bit-identical to a fault-free build).
	MeanInterval sim.Cycle
	// Kinds are the fault classes the schedule draws from, each at most
	// once and in declaration order: the schedule's random draw indexes
	// into the list, so its order is part of the seed's schedule.
	// DefaultConfig lists every kind; EnableOnly selects by name.
	Kinds []Kind
}

// DefaultConfig returns seed's schedule with every kind enabled, off
// (MeanInterval zero) until a rate is chosen.
func DefaultConfig(seed uint64) Config {
	kinds := make([]Kind, numKinds)
	for i := range kinds {
		kinds[i] = Kind(i)
	}
	return Config{Seed: seed, Kinds: kinds}
}

// EnableOnly restricts the schedule to the named kinds (mnemonics from
// KindNames, in any order). An unknown name or an empty list is an
// error, reported before the config is modified.
func (c *Config) EnableOnly(names []string) error {
	if len(names) == 0 {
		return fmt.Errorf("fault: no kinds named (known: %s)", strings.Join(KindNames(), ","))
	}
	var on [numKinds]bool
	for _, name := range names {
		k := Kind(0)
		for k < numKinds && k.String() != name {
			k++
		}
		if k == numKinds {
			return fmt.Errorf("fault: unknown kind %q (known: %s)", name, strings.Join(KindNames(), ","))
		}
		on[k] = true
	}
	c.Kinds = nil
	for k := Kind(0); k < numKinds; k++ {
		if on[k] {
			c.Kinds = append(c.Kinds, k)
		}
	}
	return nil
}

// Enabled reports whether the schedule injects anything.
func (c Config) Enabled() bool { return c.MeanInterval > 0 }

// Droppable is the predicate the injector hands to the network drop
// hooks for NetDrop: only prefetch-tagged data packets may vanish,
// because the PFU's timeout/reissue path tolerates loss.
func Droppable(p *network.Packet) bool {
	return (p.Kind == network.Read || p.Kind == network.Reply) && p.Tag < prefetch.TagSpan
}

// DroppableCE is the CEDrop predicate: data packets carrying CE direct
// request tags — scalar reads and vector stream elements, whose loss
// the CE's inflight-queue timeout-and-reissue path recovers. Sync
// packets are excluded by tag range: a sync reply is an ordinary
// network.Reply distinguishable only by its tag living at or above
// ce.SyncTagBase, and the Test-And-Operate it answers must never be
// reissued.
func DroppableCE(p *network.Packet) bool {
	return (p.Kind == network.Read || p.Kind == network.Reply) &&
		p.Tag >= ce.TagBase && p.Tag < ce.SyncTagBase
}

// StoppableCE is the slice of the CE the injector drives for check-stop
// faults; ce.CE satisfies it.
type StoppableCE interface {
	CheckStop(now sim.Cycle)
	Repair(now sim.Cycle)
	CheckStopped() bool
}

// FaultableIP is the slice of the interactive processor the injector
// drives for I/O-path faults; cluster.IP satisfies it. Both hooks only
// defer future transfer starts — they never touch a transfer in flight —
// so they stay behaviorally identical across engine modes.
type FaultableIP interface {
	FaultBusy(now, window sim.Cycle)
	FaultDelayNext(extra sim.Cycle)
}

// FaultableCache is the slice of the cluster cache the injector drives
// for bank-busy faults; cache.Cache satisfies it. The hook only defers
// port service (callers retry refused accesses), never losing state.
type FaultableCache interface {
	FaultBankBusy(now sim.Cycle, bank int, window sim.Cycle)
	Banks() int
}

// FaultableBus is the slice of the cluster's concurrency bus the
// injector drives for bus-stall faults; cluster.Cluster satisfies it.
// The hook only stretches operations that start inside the window.
type FaultableBus interface {
	FaultBusStall(now sim.Cycle, window sim.Cycle)
}

// repairTimer schedules the repair of a check-stopped CE.
type repairTimer struct {
	ce int
	at sim.Cycle
}

// Injector is the seeded fault scheduler. It is a sim.IdleComponent and
// MUST be registered before every architected component: its tick slot
// then precedes theirs within a cycle, so a fault window set at cycle t
// is visible to the target's own tick at t in every engine mode, which
// is what keeps fault-injected runs mode-bit-identical.
type Injector struct {
	cfg Config
	rng *sim.Rand

	fwd, rev *network.Network
	mods     []*gmem.Module
	ces      []StoppableCE
	ips      []FaultableIP
	caches   []FaultableCache
	buses    []FaultableBus

	next    sim.Cycle
	repairs []repairTimer

	// Counters.
	Injected    int64 // faults applied
	NetStalls   int64
	NetDrops    int64
	MemBusies   int64
	MemDegrades int64
	CheckStops  int64
	IPBusies    int64
	IPDelays    int64
	CacheBusies int64
	BusStalls   int64
	CEDrops     int64
	Repairs     int64
	NoTarget    int64 // scheduled faults with no eligible target (skipped)
}

// NewInjector builds an injector over the machine's fault surfaces. It
// panics if the config is not Enabled or enables no fault kind: the
// builder must simply not construct an injector for a fault-free run.
func NewInjector(cfg Config, fwd, rev *network.Network, mods []*gmem.Module, ces []StoppableCE, ips []FaultableIP, caches []FaultableCache, buses []FaultableBus) *Injector {
	if !cfg.Enabled() {
		panic("fault: NewInjector with a disabled config")
	}
	if len(cfg.Kinds) == 0 {
		panic("fault: no fault kinds enabled")
	}
	inj := &Injector{
		cfg:    cfg,
		rng:    sim.NewRand(cfg.Seed),
		fwd:    fwd,
		rev:    rev,
		mods:   mods,
		ces:    ces,
		ips:    ips,
		caches: caches,
		buses:  buses,
	}
	inj.next = inj.gap()
	return inj
}

// PendingRepairs reports the check-stopped CEs still awaiting their
// repair timer — the census term that balances CheckStops against
// Repairs when a run ends mid-window.
func (inj *Injector) PendingRepairs() int { return len(inj.repairs) }

// gap draws the next inter-fault interval: uniform on [1, 2*MeanInterval],
// mean ~MeanInterval.
func (inj *Injector) gap() sim.Cycle {
	return 1 + sim.Cycle(inj.rng.Intn(int(2*inj.cfg.MeanInterval)))
}

// NextEvent implements sim.IdleComponent: the next fault or repair cycle.
// The injector is never dormant — there is always a next scheduled fault —
// so fast-forward remains possible between faults but no fault cycle is
// ever skipped.
func (inj *Injector) NextEvent(now sim.Cycle) sim.Cycle {
	next := inj.next
	for _, r := range inj.repairs {
		if r.at < next {
			next = r.at
		}
	}
	if next < now {
		return now
	}
	return next
}

// Tick applies due repairs, then a due fault. Guarded so the extra ticks
// the naive engine delivers draw nothing from the RNG: the draw sequence
// is a pure function of the schedule, identical in every mode.
func (inj *Injector) Tick(now sim.Cycle) {
	kept := inj.repairs[:0]
	for _, r := range inj.repairs {
		if r.at <= now {
			inj.ces[r.ce].Repair(now)
			inj.Repairs++
		} else {
			kept = append(kept, r)
		}
	}
	inj.repairs = kept
	if now < inj.next {
		return
	}
	inj.inject(now)
	inj.next = now + inj.gap()
}

func (inj *Injector) inject(now sim.Cycle) {
	switch inj.cfg.Kinds[inj.rng.Intn(len(inj.cfg.Kinds))] {
	case NetStall:
		inj.injectNetStall(now)
	case NetDrop:
		inj.injectNetDrop(now)
	case MemBusy:
		m := inj.mods[inj.rng.Intn(len(inj.mods))]
		m.FaultBusy(now, busyWindow)
		inj.MemBusies++
		inj.Injected++
	case MemDegrade:
		m := inj.mods[inj.rng.Intn(len(inj.mods))]
		m.FaultDegrade(now, degradeWindow, degradePenalty)
		inj.MemDegrades++
		inj.Injected++
	case CheckStop:
		inj.injectCheckStop(now)
	case IPBusy:
		if len(inj.ips) == 0 {
			inj.NoTarget++
			return
		}
		inj.ips[inj.rng.Intn(len(inj.ips))].FaultBusy(now, ipBusyWindow)
		inj.IPBusies++
		inj.Injected++
	case IPDelay:
		if len(inj.ips) == 0 {
			inj.NoTarget++
			return
		}
		inj.ips[inj.rng.Intn(len(inj.ips))].FaultDelayNext(ipDelayPenalty)
		inj.IPDelays++
		inj.Injected++
	case CacheBankBusy:
		if len(inj.caches) == 0 {
			inj.NoTarget++
			return
		}
		ch := inj.caches[inj.rng.Intn(len(inj.caches))]
		ch.FaultBankBusy(now, inj.rng.Intn(ch.Banks()), cacheBusyWindow)
		inj.CacheBusies++
		inj.Injected++
	case BusStall:
		if len(inj.buses) == 0 {
			inj.NoTarget++
			return
		}
		inj.buses[inj.rng.Intn(len(inj.buses))].FaultBusStall(now, busStallWindow)
		inj.BusStalls++
		inj.Injected++
	case CEDrop:
		inj.injectCEDrop(now)
	}
}

// pickNet chooses the forward or reverse network.
func (inj *Injector) pickNet() *network.Network {
	if inj.rng.Intn(2) == 0 {
		return inj.fwd
	}
	return inj.rev
}

func (inj *Injector) injectNetStall(now sim.Cycle) {
	n := inj.pickNet()
	w := stallWindow
	switch inj.rng.Intn(3) {
	case 0:
		n.StallEntry(now, inj.rng.Intn(n.Ports()), w)
	case 1:
		s := inj.rng.Intn(n.Stages())
		swi := inj.rng.Intn(n.Ports() / n.Radix())
		n.StallSwitchOut(now, s, swi, inj.rng.Intn(n.Radix()), w)
	case 2:
		n.StallDelivery(now, inj.rng.Intn(n.Ports()), w)
	}
	inj.NetStalls++
	inj.Injected++
}

func (inj *Injector) injectNetDrop(now sim.Cycle) {
	n := inj.pickNet()
	var pk *network.Packet
	if inj.rng.Intn(2) == 0 {
		pk = n.DropEntryHead(inj.rng.Intn(n.Ports()), Droppable)
	} else {
		s := inj.rng.Intn(n.Stages())
		swi := inj.rng.Intn(n.Ports() / n.Radix())
		pk = n.DropSwitchHead(s, swi, inj.rng.Intn(n.Radix()), Droppable)
	}
	if pk == nil {
		inj.NoTarget++
		return
	}
	inj.NetDrops++
	inj.Injected++
}

// injectCEDrop discards one in-flight CE direct-tagged packet, from the
// same drop surfaces as NetDrop but selected by DroppableCE. Unlike the
// prefetch streams NetDrop feeds on, CE direct traffic is sparse — a
// handful of outstanding reads per CE — so a single random probe would
// miss almost every time. The chosen network's surfaces are scanned in
// deterministic order instead, and the first matching packet dies;
// NoTarget means no CE direct packet was in flight there at all.
func (inj *Injector) injectCEDrop(now sim.Cycle) {
	n := inj.pickNet()
	var pk *network.Packet
	for p := 0; p < n.Ports() && pk == nil; p++ {
		pk = n.DropEntryHead(p, DroppableCE)
	}
	for s := 0; s < n.Stages() && pk == nil; s++ {
		for swi := 0; swi < n.Ports()/n.Radix() && pk == nil; swi++ {
			for in := 0; in < n.Radix() && pk == nil; in++ {
				pk = n.DropSwitchHead(s, swi, in, DroppableCE)
			}
		}
	}
	if pk == nil {
		inj.NoTarget++
		return
	}
	inj.CEDrops++
	inj.Injected++
}

func (inj *Injector) injectCheckStop(now sim.Cycle) {
	c := inj.rng.Intn(len(inj.ces))
	if inj.ces[c].CheckStopped() {
		inj.NoTarget++
		return
	}
	inj.ces[c].CheckStop(now)
	inj.repairs = append(inj.repairs, repairTimer{ce: c, at: now + RepairWindow})
	inj.CheckStops++
	inj.Injected++
}

// censusRow is one line of the injected-fault census: its census key
// and table label, its metric name, and its counter.
type censusRow struct {
	label, metric string
	n             *int64
}

// census lists the per-kind counters in declaration order, then repairs
// and skipped faults: the one list RegisterMetrics, Census and
// SummaryTable serve.
func (inj *Injector) census() []censusRow {
	return []censusRow{
		{NetStall.String(), "net_stalls", &inj.NetStalls},
		{NetDrop.String(), "net_drops", &inj.NetDrops},
		{MemBusy.String(), "mem_busies", &inj.MemBusies},
		{MemDegrade.String(), "mem_degrades", &inj.MemDegrades},
		{CheckStop.String(), "check_stops", &inj.CheckStops},
		{IPBusy.String(), "ip_busies", &inj.IPBusies},
		{IPDelay.String(), "ip_delays", &inj.IPDelays},
		{CacheBankBusy.String(), "cache_busies", &inj.CacheBusies},
		{BusStall.String(), "bus_stalls", &inj.BusStalls},
		{CEDrop.String(), "ce_drops", &inj.CEDrops},
		{"repairs", "repairs", &inj.Repairs},
		{"no-target", "no_target", &inj.NoTarget},
	}
}

// RegisterMetrics publishes the injector's counters under prefix
// (conventionally "fault").
func (inj *Injector) RegisterMetrics(reg *telemetry.Registry, prefix string) {
	s := reg.Scope(prefix)
	s.Counter("injected", &inj.Injected)
	for _, r := range inj.census() {
		s.Counter(r.metric, r.n)
	}
}

// Census returns the injected-fault counts keyed by kind mnemonic,
// plus "repairs" and "no-target" — the serializable form of
// SummaryTable, carried in job results.
func (inj *Injector) Census() map[string]int64 {
	out := make(map[string]int64, int(numKinds)+2)
	for _, r := range inj.census() {
		out[r.label] = *r.n
	}
	return out
}

// SummaryTable renders the injected-fault census for the CLI report.
func (inj *Injector) SummaryTable() *report.Table {
	t := report.NewTable("Injected faults", "kind", "count")
	for _, r := range inj.census() {
		t.AddRow(r.label, fmt.Sprint(*r.n))
	}
	t.AddNote(fmt.Sprintf("seed %#x, mean interval %d cycles", inj.cfg.Seed, inj.cfg.MeanInterval))
	return t
}
