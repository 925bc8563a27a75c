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
	// output port, or a delivery link) for StallWindow cycles.
	NetStall Kind = iota
	// NetDrop discards one in-flight prefetch packet (request or reply).
	// Only prefetch-tagged Read/Reply packets are droppable by this
	// kind; CEDrop covers CE direct tags, and sync packets are never
	// droppable (the Test-And-Operate at the module is not idempotent).
	NetDrop
	// MemBusy makes one memory module refuse to start service for
	// BusyWindow cycles (a controller check-stop with fast restart).
	MemBusy
	// MemDegrade puts one module in an ECC-retry regime: it keeps serving
	// for DegradeWindow cycles but each access costs DegradePenalty extra.
	MemDegrade
	// CheckStop halts one CE at its next instruction boundary until the
	// injector repairs it RepairWindow cycles later; a held program is
	// surrendered for gang rescheduling.
	CheckStop
	// IPBusy occupies one cluster's interactive processor with non-I/O
	// work for IPBusyWindow cycles: queued transfers wait, a transfer
	// already in flight drains normally.
	IPBusy
	// IPDelay inflates the service time of the next transfer an IP
	// starts by IPDelayPenalty cycles (a slow seek / retried sector).
	IPDelay
	// CacheBankBusy monopolizes one cluster-cache bank for
	// CacheBusyWindow cycles: all of the bank's ports refuse service
	// until the window expires. Recovery is structural — every cache
	// client already retries refused accesses next cycle.
	CacheBankBusy
	// BusStall stalls one cluster's concurrency bus for BusStallWindow
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

// Config parameterizes the fault schedule and the recovery knobs the
// machine builder pushes into the affected layers.
type Config struct {
	// Seed selects the deterministic fault schedule.
	Seed uint64
	// MeanInterval is the mean gap between injected faults in cycles;
	// zero disables the subsystem entirely (no injector is built, and
	// the machine is bit-identical to a fault-free build).
	MeanInterval sim.Cycle

	// Enable flags per fault class. DefaultConfig enables all.
	EnableNetStall      bool
	EnableNetDrop       bool
	EnableMemBusy       bool
	EnableMemDegrade    bool
	EnableCheckStop     bool
	EnableIPBusy        bool
	EnableIPDelay       bool
	EnableCacheBankBusy bool
	EnableBusStall      bool
	EnableCEDrop        bool

	// StallWindow is the duration of a network resource stall.
	StallWindow sim.Cycle
	// BusyWindow is the duration of a memory-module busy fault.
	BusyWindow sim.Cycle
	// DegradeWindow and DegradePenalty shape a module's ECC-retry regime.
	DegradeWindow  sim.Cycle
	DegradePenalty sim.Cycle
	// RepairWindow is how long a check-stopped CE stays down before the
	// injector repairs it.
	RepairWindow sim.Cycle
	// RescheduleLatency is the Xylem kernel cost of redispatching a
	// surrendered cluster task.
	RescheduleLatency sim.Cycle
	// IPBusyWindow is the duration of an interactive-processor busy
	// fault; IPDelayPenalty the extra service time of a delayed
	// transfer.
	IPBusyWindow   sim.Cycle
	IPDelayPenalty sim.Cycle
	// CacheBusyWindow is the duration of a cache-bank busy fault;
	// BusStallWindow the duration of a concurrency-bus stall.
	CacheBusyWindow sim.Cycle
	BusStallWindow  sim.Cycle
	// ReadTimeout and MaxRetries are the request-layer recovery knobs the
	// builder pushes into every CE and PFU when the subsystem is enabled.
	ReadTimeout sim.Cycle
	MaxRetries  int
}

// DefaultConfig returns the calibrated fault parameters with all kinds
// enabled and the schedule disabled (MeanInterval zero) until a rate is
// chosen.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:                seed,
		EnableNetStall:      true,
		EnableNetDrop:       true,
		EnableMemBusy:       true,
		EnableMemDegrade:    true,
		EnableCheckStop:     true,
		EnableIPBusy:        true,
		EnableIPDelay:       true,
		EnableCacheBankBusy: true,
		EnableBusStall:      true,
		EnableCEDrop:        true,
		StallWindow:         20,
		BusyWindow:          30,
		DegradeWindow:       200,
		DegradePenalty:      2,
		IPBusyWindow:        400,
		IPDelayPenalty:      120,
		CacheBusyWindow:     25,
		BusStallWindow:      40,
		RepairWindow:        2000,
		RescheduleLatency:   500,
		ReadTimeout:         200,
		MaxRetries:          6,
	}
}

// EnableOnly restricts the schedule to the named kinds (mnemonics from
// KindNames), clearing every other enable flag. An unknown name or an
// empty list is an error, reported before any flag is modified.
func (c *Config) EnableOnly(names []string) error {
	flags := map[string]*bool{
		NetStall.String():      &c.EnableNetStall,
		NetDrop.String():       &c.EnableNetDrop,
		MemBusy.String():       &c.EnableMemBusy,
		MemDegrade.String():    &c.EnableMemDegrade,
		CheckStop.String():     &c.EnableCheckStop,
		IPBusy.String():        &c.EnableIPBusy,
		IPDelay.String():       &c.EnableIPDelay,
		CacheBankBusy.String(): &c.EnableCacheBankBusy,
		BusStall.String():      &c.EnableBusStall,
		CEDrop.String():        &c.EnableCEDrop,
	}
	if len(names) == 0 {
		return fmt.Errorf("fault: no kinds named (known: %s)", strings.Join(KindNames(), ","))
	}
	picked := make([]*bool, 0, len(names))
	for _, name := range names {
		f, ok := flags[name]
		if !ok {
			return fmt.Errorf("fault: unknown kind %q (known: %s)", name, strings.Join(KindNames(), ","))
		}
		picked = append(picked, f)
	}
	for _, f := range flags {
		*f = false
	}
	for _, f := range picked {
		*f = true
	}
	return nil
}

// Enabled reports whether the schedule injects anything.
func (c Config) Enabled() bool { return c.MeanInterval > 0 }

func (c Config) kinds() []Kind {
	var ks []Kind
	if c.EnableNetStall {
		ks = append(ks, NetStall)
	}
	if c.EnableNetDrop {
		ks = append(ks, NetDrop)
	}
	if c.EnableMemBusy {
		ks = append(ks, MemBusy)
	}
	if c.EnableMemDegrade {
		ks = append(ks, MemDegrade)
	}
	if c.EnableCheckStop {
		ks = append(ks, CheckStop)
	}
	if c.EnableIPBusy {
		ks = append(ks, IPBusy)
	}
	if c.EnableIPDelay {
		ks = append(ks, IPDelay)
	}
	if c.EnableCacheBankBusy {
		ks = append(ks, CacheBankBusy)
	}
	if c.EnableBusStall {
		ks = append(ks, BusStall)
	}
	if c.EnableCEDrop {
		ks = append(ks, CEDrop)
	}
	return ks
}

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
	cfg   Config
	rng   *sim.Rand
	kinds []Kind

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
	kinds := cfg.kinds()
	if len(kinds) == 0 {
		panic("fault: no fault kinds enabled")
	}
	inj := &Injector{
		cfg:    cfg,
		rng:    sim.NewRand(cfg.Seed),
		kinds:  kinds,
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
	switch inj.kinds[inj.rng.Intn(len(inj.kinds))] {
	case NetStall:
		inj.injectNetStall(now)
	case NetDrop:
		inj.injectNetDrop(now)
	case MemBusy:
		m := inj.mods[inj.rng.Intn(len(inj.mods))]
		m.FaultBusy(now, inj.cfg.BusyWindow)
		inj.MemBusies++
		inj.Injected++
	case MemDegrade:
		m := inj.mods[inj.rng.Intn(len(inj.mods))]
		m.FaultDegrade(now, inj.cfg.DegradeWindow, inj.cfg.DegradePenalty)
		inj.MemDegrades++
		inj.Injected++
	case CheckStop:
		inj.injectCheckStop(now)
	case IPBusy:
		if len(inj.ips) == 0 {
			inj.NoTarget++
			return
		}
		inj.ips[inj.rng.Intn(len(inj.ips))].FaultBusy(now, inj.cfg.IPBusyWindow)
		inj.IPBusies++
		inj.Injected++
	case IPDelay:
		if len(inj.ips) == 0 {
			inj.NoTarget++
			return
		}
		inj.ips[inj.rng.Intn(len(inj.ips))].FaultDelayNext(inj.cfg.IPDelayPenalty)
		inj.IPDelays++
		inj.Injected++
	case CacheBankBusy:
		if len(inj.caches) == 0 {
			inj.NoTarget++
			return
		}
		ch := inj.caches[inj.rng.Intn(len(inj.caches))]
		ch.FaultBankBusy(now, inj.rng.Intn(ch.Banks()), inj.cfg.CacheBusyWindow)
		inj.CacheBusies++
		inj.Injected++
	case BusStall:
		if len(inj.buses) == 0 {
			inj.NoTarget++
			return
		}
		inj.buses[inj.rng.Intn(len(inj.buses))].FaultBusStall(now, inj.cfg.BusStallWindow)
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
	w := inj.cfg.StallWindow
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
	inj.repairs = append(inj.repairs, repairTimer{ce: c, at: now + inj.cfg.RepairWindow})
	inj.CheckStops++
	inj.Injected++
}

// RegisterMetrics publishes the injector's counters under prefix
// (conventionally "fault").
func (inj *Injector) RegisterMetrics(reg *telemetry.Registry, prefix string) {
	reg.Counter(prefix+"/injected", &inj.Injected)
	reg.Counter(prefix+"/net_stalls", &inj.NetStalls)
	reg.Counter(prefix+"/net_drops", &inj.NetDrops)
	reg.Counter(prefix+"/mem_busies", &inj.MemBusies)
	reg.Counter(prefix+"/mem_degrades", &inj.MemDegrades)
	reg.Counter(prefix+"/check_stops", &inj.CheckStops)
	reg.Counter(prefix+"/ip_busies", &inj.IPBusies)
	reg.Counter(prefix+"/ip_delays", &inj.IPDelays)
	reg.Counter(prefix+"/cache_busies", &inj.CacheBusies)
	reg.Counter(prefix+"/bus_stalls", &inj.BusStalls)
	reg.Counter(prefix+"/ce_drops", &inj.CEDrops)
	reg.Counter(prefix+"/repairs", &inj.Repairs)
	reg.Counter(prefix+"/no_target", &inj.NoTarget)
}

// Census returns the injected-fault counts keyed by kind mnemonic,
// plus "repairs" and "no-target" — the serializable form of
// SummaryTable, carried in job results.
func (inj *Injector) Census() map[string]int64 {
	return map[string]int64{
		NetStall.String():      inj.NetStalls,
		NetDrop.String():       inj.NetDrops,
		MemBusy.String():       inj.MemBusies,
		MemDegrade.String():    inj.MemDegrades,
		CheckStop.String():     inj.CheckStops,
		IPBusy.String():        inj.IPBusies,
		IPDelay.String():       inj.IPDelays,
		CacheBankBusy.String(): inj.CacheBusies,
		BusStall.String():      inj.BusStalls,
		CEDrop.String():        inj.CEDrops,
		"repairs":              inj.Repairs,
		"no-target":            inj.NoTarget,
	}
}

// SummaryTable renders the injected-fault census for the CLI report.
func (inj *Injector) SummaryTable() *report.Table {
	t := report.NewTable("Injected faults", "kind", "count")
	t.AddRow(NetStall.String(), fmt.Sprint(inj.NetStalls))
	t.AddRow(NetDrop.String(), fmt.Sprint(inj.NetDrops))
	t.AddRow(MemBusy.String(), fmt.Sprint(inj.MemBusies))
	t.AddRow(MemDegrade.String(), fmt.Sprint(inj.MemDegrades))
	t.AddRow(CheckStop.String(), fmt.Sprint(inj.CheckStops))
	t.AddRow(IPBusy.String(), fmt.Sprint(inj.IPBusies))
	t.AddRow(IPDelay.String(), fmt.Sprint(inj.IPDelays))
	t.AddRow(CacheBankBusy.String(), fmt.Sprint(inj.CacheBusies))
	t.AddRow(BusStall.String(), fmt.Sprint(inj.BusStalls))
	t.AddRow(CEDrop.String(), fmt.Sprint(inj.CEDrops))
	t.AddRow("repairs", fmt.Sprint(inj.Repairs))
	t.AddRow("no-target", fmt.Sprint(inj.NoTarget))
	t.AddNote(fmt.Sprintf("seed %#x, mean interval %d cycles", inj.cfg.Seed, inj.cfg.MeanInterval))
	return t
}
