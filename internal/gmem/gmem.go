// Package gmem models Cedar's globally shared memory: 64 MB of
// double-word (8-byte) interleaved and aligned storage, organized as
// independent memory modules, each attached to one output port of the
// forward network and one input port of the reverse network.
//
// Each module contains a synchronization processor that executes Cedar's
// indivisible synchronization instructions — Test-And-Set and the
// Test-And-Operate family of [ZhYe87] — at the memory, so that
// synchronization requires a single network round trip rather than a lock
// cycle, which a multistage network cannot provide.
//
// The paper's peak global bandwidth of 768 MB/s (24 MB/s per processor)
// arises here from the module count and per-request service time: with 32
// modules each accepting a request every 2 cycles, the aggregate is
// 16 words/cycle = 16 x 8 B / 170 ns = 753 MB/s.
package gmem

import (
	"fmt"
	"math"

	"repro/internal/network"
	"repro/internal/sim"
)

// Config describes a global memory system.
type Config struct {
	// Words is the total capacity in 64-bit words. The Cedar default is
	// 64 MB = 8 Mwords.
	Words int
	// Modules is the number of interleaved memory modules (default 32).
	// Addresses are interleaved across modules by double word: word a
	// lives in module a mod Modules.
	Modules int
	// ServiceCycles is the time a module is occupied by one request
	// (default 2, yielding the paper's aggregate bandwidth).
	ServiceCycles int
	// QueueWords is the request queue capacity at each module, in words
	// (default 4).
	QueueWords int
}

// Default returns the as-built Cedar global memory configuration.
func Default() Config {
	return Config{
		Words:         64 << 20 / 8,
		Modules:       32,
		ServiceCycles: 2,
		QueueWords:    4,
	}
}

// Global is the shared memory system: the backing store plus the modules.
type Global struct {
	cfg Config
	// pages is the backing store, pageWords words a page. A page is
	// allocated on its first store; a nil page has never been written,
	// so every word of it reads zero.
	pages []*[pageWords]uint64
	mods  []*Module
}

// pageWords is the page size of the backing store: 4096 words (32 KiB).
// The default 8 Mword memory is 2048 pages, so its page table is 16 KiB,
// and a run pays only for the pages it writes.
const pageWords = 4096

// New builds a global memory. Replies are injected into rev at the input
// port equal to the module index; requests arrive from fwd output ports
// 0..Modules-1 (the caller attaches the modules as sinks via Attach).
func New(cfg Config, rev *network.Network) (*Global, error) {
	if cfg.Modules <= 0 || cfg.Words <= 0 {
		return nil, fmt.Errorf("gmem: non-positive size (%d words, %d modules)", cfg.Words, cfg.Modules)
	}
	if cfg.ServiceCycles <= 0 {
		cfg.ServiceCycles = 2
	}
	if cfg.QueueWords <= 0 {
		cfg.QueueWords = 4
	}
	g := &Global{cfg: cfg, pages: make([]*[pageWords]uint64, (cfg.Words+pageWords-1)/pageWords)}
	g.mods = make([]*Module, cfg.Modules)
	for m := range g.mods {
		g.mods[m] = &Module{
			g:          g,
			index:      m,
			rev:        rev,
			queueCap:   cfg.QueueWords,
			service:    sim.Cycle(cfg.ServiceCycles),
			nextFreeAt: 0,
		}
	}
	return g, nil
}

// Config returns the configuration the memory was built with.
func (g *Global) Config() Config { return g.cfg }

// Module returns module m, for attaching to the forward network and for
// registering with the engine.
func (g *Global) Module(m int) *Module { return g.mods[m] }

// Modules returns the module count.
func (g *Global) Modules() int { return len(g.mods) }

// Words returns the capacity in 64-bit words.
func (g *Global) Words() int { return g.cfg.Words }

// ModuleOf returns the module index holding word address a.
func (g *Global) ModuleOf(a uint64) int { return int(a % uint64(len(g.mods))) }

// LoadWord returns the raw word at address a. This is the functional
// (zero-time) view used by workload code; timing flows through packets.
func (g *Global) LoadWord(a uint64) uint64 {
	if pg := g.pages[g.page(a)]; pg != nil {
		return pg[a%pageWords]
	}
	return 0
}

// StoreWord sets the raw word at address a, allocating its page on the
// page's first store.
func (g *Global) StoreWord(a uint64, v uint64) {
	i := g.page(a)
	pg := g.pages[i]
	if pg == nil {
		pg = new([pageWords]uint64)
		g.pages[i] = pg
	}
	pg[a%pageWords] = v
}

// page returns the index of the page holding address a. An address at or
// beyond Words panics even where its page would hold it.
func (g *Global) page(a uint64) uint64 {
	if a >= uint64(g.cfg.Words) {
		panic(fmt.Sprintf("gmem: address %d beyond %d words", a, g.cfg.Words))
	}
	return a / pageWords
}

// LoadFloat returns the word at a interpreted as a float64.
func (g *Global) LoadFloat(a uint64) float64 { return math.Float64frombits(g.LoadWord(a)) }

// StoreFloat stores a float64 at a.
func (g *Global) StoreFloat(a uint64, v float64) { g.StoreWord(a, math.Float64bits(v)) }

// LoadInt returns the word at a interpreted as an int64 (the view the
// synchronization processor uses).
func (g *Global) LoadInt(a uint64) int64 { return int64(g.LoadWord(a)) }

// StoreInt stores an int64 at a.
func (g *Global) StoreInt(a uint64, v int64) { g.StoreWord(a, uint64(v)) }

// Module is one interleaved memory bank with its synchronization
// processor. It is a network.Sink for the forward network and a
// sim.Component.
type Module struct {
	g     *Global
	index int
	rev   *network.Network

	queue      []*network.Packet
	queueWords int
	queueCap   int

	service    sim.Cycle
	nextFreeAt sim.Cycle

	// Fault windows. busyUntil models an ECC-retry/busy glitch: no new
	// request may enter service before it (the request in service is
	// unaffected — its data was already latched). degradedUntil models a
	// module serving through a correctable fault: every request entering
	// service before it pays degradePenalty extra cycles instead of the
	// module vanishing.
	busyUntil      sim.Cycle
	degradedUntil  sim.Cycle
	degradePenalty sim.Cycle

	// inService is the request currently in the service pipeline; its
	// reply becomes available at nextFreeAt.
	inService *network.Packet

	// pending is a completed reply the reverse network has not yet
	// accepted (backpressure).
	pending *network.Packet

	waker sim.Waker

	// Counters.
	Served         int64
	SyncOps        int64
	Reads          int64
	Writes         int64
	BusyCycles     int64
	BusyFaults     int64 // ECC-retry windows applied
	DegradeFaults  int64 // degradation windows applied
	DegradedServes int64 // requests served at the degraded latency
}

// FaultBusy applies an ECC-retry window: the module accepts no new
// request into service before now+window. Windows extend, never shrink.
func (m *Module) FaultBusy(now, window sim.Cycle) {
	if now+window > m.busyUntil {
		m.busyUntil = now + window
	}
	m.BusyFaults++
}

// FaultDegrade marks the module degraded until now+window: requests
// entering service in the window take penalty extra cycles. The module
// keeps serving — graceful degradation instead of a vanished bank.
func (m *Module) FaultDegrade(now, window, penalty sim.Cycle) {
	if now+window > m.degradedUntil {
		m.degradedUntil = now + window
	}
	m.degradePenalty = penalty
	m.DegradeFaults++
}

// Offer implements network.Sink: the forward network delivers a request.
func (m *Module) Offer(p *network.Packet) bool {
	if len(m.queue) > 0 && m.queueWords+p.Words > m.queueCap {
		return false
	}
	if m.g.ModuleOf(p.Addr) != m.index {
		panic(fmt.Sprintf("gmem: address %d routed to module %d, belongs to %d",
			p.Addr, m.index, m.g.ModuleOf(p.Addr)))
	}
	m.queue = append(m.queue, p)
	m.queueWords += p.Words
	m.wake()
	return true
}

// AttachWaker implements sim.WakeSink: the engine hands the module its
// own Handle at registration. An empty module reports sim.Never, so the
// only stimulus that must wake it is a request accepted by Offer (a
// rejected Offer implies a non-empty queue — not dormant).
func (m *Module) AttachWaker(w sim.Waker) { m.waker = w }

func (m *Module) wake() {
	if m.waker != nil {
		m.waker.Wake()
	}
}

// QueueLen reports the number of requests waiting at the module.
func (m *Module) QueueLen() int { return len(m.queue) }

// NextEvent implements sim.IdleComponent. While a request is in service
// nothing can happen before nextFreeAt — queued requests cannot enter the
// single service pipeline early, and new arrivals are admitted by Offer
// without a tick — so that expiry is reported for fast-forwarding. A
// reply blocked by reverse-network backpressure retries every cycle. An
// empty module is woken by the forward network, which ticks earlier in
// the machine order.
func (m *Module) NextEvent(now sim.Cycle) sim.Cycle {
	if m.pending != nil {
		return now
	}
	if m.inService != nil {
		if m.nextFreeAt > now {
			return m.nextFreeAt
		}
		return now
	}
	if len(m.queue) > 0 {
		if m.busyUntil > now {
			// An ECC-retry window holds the queued request out of service;
			// the injector ticks before the module each cycle, so the
			// window can only extend before this slot, never after.
			return m.busyUntil
		}
		return now
	}
	return sim.Never
}

// Tick advances the module. The service pipeline takes ServiceCycles per
// request: a request accepted into service at cycle t produces its reply
// at t + ServiceCycles (memory reads and the synchronization processor's
// read-modify-write both happen when the reply is produced, so sync
// operations are serialized in service-completion order).
func (m *Module) Tick(now sim.Cycle) {
	// Finish the request in service.
	if m.inService != nil && now >= m.nextFreeAt {
		reply := m.complete(m.inService)
		m.inService = nil
		if reply != nil {
			if !m.rev.Offer(now, m.index, reply) {
				m.pending = reply
			}
		}
	}
	// Retry a reply blocked by reverse-network backpressure; the service
	// pipeline stalls behind it.
	if m.pending != nil {
		if !m.rev.Offer(now, m.index, m.pending) {
			return
		}
		m.pending = nil
	}
	// Begin servicing the next request; an ECC-retry window delays entry
	// into service (checked here as well as in NextEvent so the naive
	// path, which ticks every cycle, makes the identical decision).
	if m.inService != nil || len(m.queue) == 0 || now < m.busyUntil {
		return
	}
	p := m.queue[0]
	copy(m.queue, m.queue[1:])
	m.queue = m.queue[:len(m.queue)-1]
	m.queueWords -= p.Words

	svc := m.service
	if now < m.degradedUntil {
		svc += m.degradePenalty
		m.DegradedServes++
	}
	m.inService = p
	m.nextFreeAt = now + svc
	m.BusyCycles += int64(svc)
	m.Served++
}

// complete performs the functional effect of a request and rewrites a
// Read or Sync request in place into its reply, returning the same
// packet: the issuer put it on the network and takes it back from the
// reverse network, so the reply costs no allocation. The reply keeps the
// request's Tag, Addr and issue stamp (Born, BornSet) for latency
// monitoring; BornSet also keeps the reverse network from re-stamping
// replies to requests injected at cycle 0. A posted write has no reply:
// complete returns nil and puts the request back on the Pool that sent
// it. The forward network delivered it at least ServiceCycles earlier,
// so nothing still reads it.
func (m *Module) complete(p *network.Packet) *network.Packet {
	switch p.Kind {
	case network.Read:
		m.Reads++
		return m.reply(p, m.g.LoadWord(p.Addr), false)
	case network.Write:
		m.Writes++
		if !p.Phantom {
			m.g.StoreWord(p.Addr, p.Value)
		}
		p.Recycle()
		return nil // Writes are posted: no reply (weak ordering).
	case network.Sync:
		m.SyncOps++
		old := m.g.LoadInt(p.Addr)
		ok := p.Sync.Test.Eval(old, p.Sync.TestOperand)
		if ok {
			m.g.StoreInt(p.Addr, p.Sync.Op.Apply(old, p.Sync.Operand))
		}
		return m.reply(p, uint64(old), ok)
	default:
		panic(fmt.Sprintf("gmem: module received %v packet", p.Kind))
	}
}

// reply rewrites request p into its reply carrying value v and test
// result ok, field by field: the reply keeps the request's Addr, Tag and
// issue stamp, and every other field the reply does not carry is zeroed.
func (m *Module) reply(p *network.Packet, v uint64, ok bool) *network.Packet {
	p.Dst, p.Src = p.Src, m.index
	p.Words = 1
	p.Kind = network.Reply
	p.Value = v
	p.OK = ok
	p.Sync = network.SyncSpec{}
	p.Phantom = false
	return p
}
