package core

import (
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/ce"
	"repro/internal/cluster"
	"repro/internal/prefetch"
)

// Topology renders the machine's architecture from its assembled
// components — the textual counterpart of the paper's Figures 1 and 2.
// Because it walks the live objects rather than a static description, it
// doubles as a wiring self-check for any configuration.
func (m *Machine) Topology() string {
	cfg := m.cfg
	var b strings.Builder
	fmt.Fprintf(&b, "Cedar: %d clusters x %d CEs = %d processors @ %s cycle\n",
		cfg.Clusters, cfg.Cluster.CEs, m.NumCEs(), "170ns")
	fmt.Fprintf(&b, "\n  %s network: %d ports, %d stages of %dx%d crossbars",
		m.Fwd.Name(), m.Fwd.Ports(), m.Fwd.Stages(), m.Fwd.Radix(), m.Fwd.Radix())
	if m.Fwd.Ideal() {
		b.WriteString(" (ideal/contentionless)")
	}
	fmt.Fprintf(&b, "\n  %s network: %d ports, %d stages of %dx%d crossbars",
		m.Rev.Name(), m.Rev.Ports(), m.Rev.Stages(), m.Rev.Radix(), m.Rev.Radix())
	if m.Rev.Ideal() {
		b.WriteString(" (ideal/contentionless)")
	}
	gw := float64(m.Global.Words()) * 8 / (1 << 20)
	fmt.Fprintf(&b, "\n  global memory: %d modules, %.0f MB, double-word interleaved, sync processor per module\n",
		m.Global.Modules(), gw)

	for _, cl := range m.Clusters {
		cc := cl.Cache.Config()
		fmt.Fprintf(&b, "\n  cluster %d (Alliant FX/8):\n", cl.ID)
		fmt.Fprintf(&b, "    CEs %d..%d: vector unit, %d outstanding misses, PFU (%d-word buffer)\n",
			cl.CEs[0].ID, cl.CEs[len(cl.CEs)-1].ID, cfg.CE.MaxOutstanding, prefetch.BufferWords)
		fmt.Fprintf(&b, "    shared cache: %d KB, %d-word lines, %d-way, %d banks, lockup-free\n",
			cc.Words*8/1024, cache.LineWords, cache.Ways, cc.Banks)
		fmt.Fprintf(&b, "    cluster memory: %d MB; concurrency control bus (spread %d cycles, claim %d)\n",
			cluster.MemWords*8/(1<<20), cluster.SpreadCycles, cluster.ClaimCycles)
	}
	fmt.Fprintf(&b, "\n  latencies: global round trip %d+%d cycles (network+memory, CE transfer); page %d words\n",
		8, ce.XferCycles, prefetch.PageWords)
	fmt.Fprintf(&b, "  engine: %d components in deterministic tick order\n", m.Eng.Components())
	return b.String()
}
