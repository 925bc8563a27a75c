package core

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/isa"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Registry returns the machine's metrics registry, building and
// populating it on first call: every component's counters and gauges
// appear under the topology-mirroring paths documented in the telemetry
// package. Registration is guarded — a machine that never calls
// Registry carries no telemetry state and pays nothing on the fast
// path. Machines of one shape share their registry's layout (its paths,
// kinds and fingerprint order), so a machine whose shape was built
// before only binds its counters.
func (m *Machine) Registry() *telemetry.Registry {
	if m.reg == nil {
		c := m.cfg
		key := shape{c.Clusters, c.Cluster.CEs, m.Global.Modules(), c.IdealNetwork, m.FaultInj != nil}
		m.reg = telemetry.Shaped(key, m.registerAll)
	}
	return m.reg
}

// shape is what decides a machine's metric paths: the key its registry
// layout is cached under.
type shape struct {
	clusters, ces, modules int
	ideal, faults          bool
}

// registerAll walks the machine in assembly order, so metric
// registration order (and therefore trace row order) is deterministic.
func (m *Machine) registerAll(reg *telemetry.Registry) {
	for cl, clu := range m.Clusters {
		prefix := "cluster" + strconv.Itoa(cl)
		for i, c := range clu.CEs {
			c.RegisterMetrics(reg, prefix+"/ce"+strconv.Itoa(i))
		}
		for i, c := range clu.CEs {
			c.PFU().RegisterMetrics(reg, prefix+"/pfu"+strconv.Itoa(i))
		}
		clu.Cache.RegisterMetrics(reg, prefix+"/cache")
		clu.RegisterMetrics(reg, prefix+"/bus")
		if clu.IPs != nil {
			clu.IPs.RegisterMetrics(reg, prefix+"/ip")
		}
	}
	if m.IOWait != nil {
		m.IOWait.RegisterMetrics(reg, "xylem/io")
	}
	m.Fwd.RegisterMetrics(reg, "net/fwd")
	m.Rev.RegisterMetrics(reg, "net/rev")
	for mod := 0; mod < m.Global.Modules(); mod++ {
		m.Global.Module(mod).RegisterMetrics(reg, "gmem/mod"+strconv.Itoa(mod))
	}
	if m.FaultInj != nil {
		m.FaultInj.RegisterMetrics(reg, "fault")
		// Machine-wide roll-up of replies whose tag outlived the CE stale
		// rings — a fault-recovery artifact, so it lives under fault/.
		reg.CounterFunc("fault/stale_replies", func() int64 {
			var n int64
			for _, clu := range m.Clusters {
				for _, c := range clu.CEs {
					n += c.StaleReplies
				}
			}
			return n
		})
		m.Resched.RegisterMetrics(reg, "xylem/resched")
	}
	// Engine skip/jump statistics are host-side diagnostics: they
	// legitimately differ between the quiescence-aware and naive paths,
	// so they are registered fenced off from fingerprints.
	reg.Diagnostic("engine/skipped_ticks", &m.Eng.SkippedTicks)
	reg.Diagnostic("engine/fast_forwarded", &m.Eng.FastForwarded)
	reg.Diagnostic("engine/dormant_skips", &m.Eng.DormantSkips)
	// The engine's self-profile: ticks per component class, the class
	// being the registration name without its trailing index ("ce",
	// "pfu", "gmod", ...). New registers each class's components
	// together, so a class is one run of registration indices.
	ticks := reg.Scope("engine/ticks")
	class := func(i int) string { return strings.TrimRight(m.Eng.ComponentName(i), "0123456789") }
	for lo, n := 0, m.Eng.Components(); lo < n; {
		hi := lo + 1
		for hi < n && class(hi) == class(lo) {
			hi++
		}
		from, to := lo, hi
		ticks.Register(class(lo), telemetry.Diagnostic, func() int64 {
			var t int64
			for i := from; i < to; i++ {
				t += m.Eng.Ticks(i)
			}
			return t
		})
		lo = hi
	}
}

// NewSampler builds a phase-interval sampler over the machine's
// registry (periodic sample every `every` cycles; 0 for phase marks and
// Final only) and installs it as the engine's probe.
func (m *Machine) NewSampler(every sim.Cycle) *telemetry.Sampler {
	s := telemetry.NewSampler(m.Registry(), every)
	s.Attach(m.Eng)
	return s
}

// MachineFlame renders the sampler's interval series as a compact text
// activity summary: one coded row per CE (each cell names the interval's
// dominant cycle-accounting bucket — replacing the coarse busy-fraction
// shading the CEs had before the attribution layer), one shaded row per
// network (words moved against the one-word-per-port-per-cycle injection
// bound) and one for the global memory (aggregate module busy fraction).
func (m *Machine) MachineFlame(s *telemetry.Sampler) *report.Flame {
	reg := s.Registry()
	idx := map[string]int{}
	for i, p := range reg.Paths() {
		idx[p] = i
	}
	ivs := s.Intervals()
	delta := func(iv telemetry.Interval, path string) int64 {
		i, ok := idx[path]
		if !ok {
			return 0
		}
		return iv.Delta[i]
	}
	f := report.NewFlame(fmt.Sprintf("Machine activity (%d intervals)", len(ivs)))
	for cl, clu := range m.Clusters {
		for i := range clu.CEs {
			prefix := fmt.Sprintf("cluster%d/ce%d", cl, i)
			codes := make([]byte, len(ivs))
			for k, iv := range ivs {
				best, bestN := isa.AcctIdle, int64(-1)
				for b := isa.Bucket(0); b < isa.NumBuckets; b++ {
					if d := delta(iv, prefix+"/attr/"+b.String()); d > bestN {
						best, bestN = b, d
					}
				}
				codes[k] = best.Code()
			}
			f.AddCodedRow(prefix, codes)
		}
	}
	for _, net := range []struct {
		prefix string
		n      interface{ Ports() int }
	}{{"net/fwd", m.Fwd}, {"net/rev", m.Rev}} {
		cells := make([]float64, len(ivs))
		for k, iv := range ivs {
			words := delta(iv, net.prefix+"/words_in")
			cells[k] = float64(words) / float64(int64(net.n.Ports())*int64(iv.Cycles()))
		}
		f.AddRow(net.prefix, cells)
	}
	mods := m.Global.Modules()
	cells := make([]float64, len(ivs))
	for k, iv := range ivs {
		var busy int64
		for mod := 0; mod < mods; mod++ {
			busy += delta(iv, fmt.Sprintf("gmem/mod%d/busy_cycles", mod))
		}
		cells[k] = float64(busy) / float64(int64(mods)*int64(iv.Cycles()))
	}
	f.AddRow("gmem", cells)
	if len(ivs) > 0 {
		f.AddNote(fmt.Sprintf("cycles %d..%d, %d cycles per cell (last cell may be shorter)",
			ivs[0].From, ivs[len(ivs)-1].To, ivs[0].Cycles()))
	}
	var legend strings.Builder
	for b := isa.Bucket(0); b < isa.NumBuckets; b++ {
		if b > 0 {
			legend.WriteByte(' ')
		}
		fmt.Fprintf(&legend, "'%c'=%s", b.Code(), b)
	}
	f.AddNote("CE cells mark the interval's dominant cycle bucket: " + legend.String())
	return f
}
