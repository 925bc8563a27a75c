package repro

// Host-cost benchmarks of the simulator: the engine fast path against
// the naive reference and under compute load, telemetry on against off,
// and the time to regenerate each exhibit of the internal/tables catalog
// (cmd/tables prints them).
//
//	go test -run NONE -bench . -benchtime 1x .

import (
	"io"
	"testing"

	"repro/internal/cedarfort"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/tables"
	"repro/internal/telemetry"
)

// BenchmarkExhibits times regenerating and rendering each catalog
// exhibit at the reduced -quick sizes; ns/op is the simulator's own
// speed.
func BenchmarkExhibits(b *testing.B) {
	o := tables.DefaultOptions()
	o.Quick, o.N = true, 64
	for _, e := range tables.Catalog {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d, err := e.Run(o)
				if err == nil {
					err = d.Render(io.Discard)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineQuiescence measures the engine's fast path against the
// naive tick-everything reference on a DOALL-startup-heavy workload:
// repeated self-scheduled XDOALLs whose 90 us dispatch startups leave
// the whole 32-CE machine quiet for ~530 cycles at a time — exactly the
// spans the engine fast-forwards in one jump. "wake-cached" (the default
// engine) also parks components that answered Never until an external
// stimulus wakes them, which pays off here because the claim loops keep
// the PFUs, caches and IPs permanently dormant and each CE parks while
// its fetch-and-add claim is in flight; the sync traffic still forces
// the engine to execute most cycles. Both sub-benchmarks simulate the
// identical workload (the determinism tests assert bit-identical
// results), so the ns/op ratio is a pure host-cost win. `make
// bench-engine` gates the wake-cached row against BENCH_engine.json.
func BenchmarkEngineQuiescence(b *testing.B) {
	workload := func(b *testing.B, mode sim.EngineMode) {
		var simCycles int64
		for i := 0; i < b.N; i++ {
			cfg := core.ConfigClusters(4)
			cfg.Global.Words = 1 << 16 // keep construction cost out of the engine measurement
			cfg.EngineMode = mode
			m, err := core.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			rt := cedarfort.New(m, cedarfort.DefaultConfig())
			for l := 0; l < 64; l++ {
				if _, err := rt.XDOALL(32, cedarfort.SelfScheduled, func(ctx *cedarfort.Ctx, iter int) {
					ctx.Emit(isa.NewCompute(500))
				}); err != nil {
					b.Fatal(err)
				}
			}
			simCycles = int64(m.Eng.Now())
		}
		b.ReportMetric(float64(simCycles), "sim-cycles/op")
	}
	b.Run("naive", func(b *testing.B) { workload(b, sim.ModeNaive) })
	b.Run("wake-cached", func(b *testing.B) { workload(b, sim.ModeWakeCached) })
}

// BenchmarkEngineCompute measures the default engine on a
// compute-dominated workload: self-scheduled XDOALLs of long compute
// bursts keep every CE busy nearly every cycle, so the host cost is the
// per-cycle tick work itself rather than fast-forwarding. The 16-cluster
// row is the scaled-up datapoint (ScaledConfig: 128 CEs, three-stage
// networks, one memory module per CE).
func BenchmarkEngineCompute(b *testing.B) {
	workload := func(b *testing.B, clusters int) {
		var simCycles int64
		for i := 0; i < b.N; i++ {
			var cfg core.Config
			if clusters > 4 {
				cfg = core.ScaledConfig(clusters)
			} else {
				cfg = core.ConfigClusters(clusters)
			}
			cfg.Global.Words = 1 << 16 // keep construction cost out of the engine measurement
			m, err := core.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			rt := cedarfort.New(m, cedarfort.DefaultConfig())
			for l := 0; l < 8; l++ {
				if _, err := rt.XDOALL(m.NumCEs(), cedarfort.SelfScheduled, func(ctx *cedarfort.Ctx, iter int) {
					ctx.Emit(isa.NewCompute(3000))
				}); err != nil {
					b.Fatal(err)
				}
			}
			simCycles = int64(m.Eng.Now())
		}
		b.ReportMetric(float64(simCycles), "sim-cycles/op")
	}
	b.Run("wake-cached-4cl", func(b *testing.B) { workload(b, 4) })
	b.Run("wake-cached-16cl", func(b *testing.B) { workload(b, 16) })
}

// BenchmarkTelemetryOverhead measures what the observability layer
// costs, on the same DOALL-startup-heavy workload as
// BenchmarkEngineQuiescence (wake-cached path): "off" never builds a
// registry — the acceptance gate is that this stays within noise of the
// pre-telemetry engine — and "on" samples the full registry every 2000
// cycles with phase marks wired through the runtime.
func BenchmarkTelemetryOverhead(b *testing.B) {
	workload := func(b *testing.B, observe bool) {
		var samples int
		for i := 0; i < b.N; i++ {
			cfg := core.ConfigClusters(4)
			cfg.Global.Words = 1 << 16
			m, err := core.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			var s *telemetry.Sampler
			if observe {
				s = m.NewSampler(2000)
			}
			rt := cedarfort.New(m, cedarfort.DefaultConfig())
			if s != nil {
				rt.Phases = s
			}
			for l := 0; l < 64; l++ {
				if _, err := rt.XDOALL(32, cedarfort.SelfScheduled, func(ctx *cedarfort.Ctx, iter int) {
					ctx.Emit(isa.NewCompute(500))
				}); err != nil {
					b.Fatal(err)
				}
			}
			if s != nil {
				s.Final()
				samples = len(s.Samples())
			}
		}
		if observe {
			b.ReportMetric(float64(samples), "samples/op")
		}
	}
	b.Run("off", func(b *testing.B) { workload(b, false) })
	b.Run("on", func(b *testing.B) { workload(b, true) })
}
