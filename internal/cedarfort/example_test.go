package cedarfort_test

import (
	"fmt"

	"repro/internal/cedarfort"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/network"
	"repro/internal/sim"
)

// Example runs a self-scheduled XDOALL over a one-cluster machine: each
// iteration is claimed through a fetch-and-add in global memory and the
// body's arithmetic runs on ordinary Go data.
func Example() {
	cfg := core.ConfigClusters(1)
	cfg.Global.Words = 1 << 12
	m := core.MustNew(cfg)
	rt := cedarfort.New(m, cedarfort.DefaultConfig())

	sum := make([]int, m.NumCEs())
	_, err := rt.XDOALL(100, cedarfort.SelfScheduled, func(ctx *cedarfort.Ctx, iter int) {
		op := isa.NewCompute(10)
		ce := ctx.CE.ID
		op.Do = func() { sum[ce] += iter }
		ctx.Emit(op)
	})
	if err != nil {
		panic(err)
	}
	total := 0
	for _, s := range sum {
		total += s
	}
	fmt.Println(total)
	// Output:
	// 4950
}

// ExampleRuntime_SDOALL nests a CDOALL inside an SDOALL: the outer loop
// schedules iterations onto whole clusters, the inner loop spreads over
// the cluster's CEs through the concurrency bus.
func ExampleRuntime_SDOALL() {
	cfg := core.ConfigClusters(2)
	cfg.Global.Words = 1 << 12
	m := core.MustNew(cfg)
	rt := cedarfort.New(m, cedarfort.DefaultConfig())

	count := 0
	_, err := rt.SDOALL(4, true, func(ctx *cedarfort.Ctx, iter int) {
		ctx.CDOALL(8, cedarfort.SelfScheduled, func(ictx *cedarfort.Ctx, j int) {
			op := isa.NewCompute(5)
			op.Do = func() { count++ }
			ictx.Emit(op)
		})
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(count)
	// Output:
	// 32
}

// ExampleRuntime_XDOALL builds the as-built Cedar (4 Alliant clusters of
// 8 CEs, two 64-port shuffle-exchange networks, 32 global memory modules
// with synchronization processors, a prefetch unit per CE) and runs a
// sum of squares as an XDOALL: iterations are self-scheduled over all 32
// CEs through a fetch-and-add counter in global memory, and each one
// handles a 32-element strip with a prefetched global vector load. The
// simulator tracks timing through micro-operations; the arithmetic runs
// in Do callbacks on ordinary Go data.
func ExampleRuntime_XDOALL() {
	m := core.MustNew(core.DefaultConfig())
	rt := cedarfort.New(m, cedarfort.DefaultConfig())

	const n = 1024
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
	}
	partial := make([]float64, m.NumCEs())

	elapsed, err := rt.XDOALL(n/32, cedarfort.SelfScheduled, func(ctx *cedarfort.Ctx, iter int) {
		lo := iter * 32
		addr := isa.Addr{Space: isa.Global, Word: uint64(lo)}
		ctx.Emit(isa.NewPrefetch(addr, 32, 1))
		op := isa.NewVectorLoad(addr, 32, 1, 2, true)
		ce := ctx.CE.ID
		op.Do = func() {
			for i := lo; i < lo+32; i++ {
				partial[ce] += xs[i] * xs[i]
			}
		}
		ctx.Emit(op)
	})
	if err != nil {
		panic(err)
	}

	sum := 0.0
	for _, p := range partial {
		sum += p
	}
	want := float64(n-1) * float64(n) * float64(2*n-1) / 6
	fmt.Printf("sum of squares 0..%d = %.0f (expected %.0f)\n", n-1, sum, want)
	fmt.Printf("elapsed: %d cycles = %.1f us simulated (includes the ~90 us XDOALL startup)\n",
		elapsed, elapsed.Seconds()*1e6)
	fmt.Printf("machine: %d CEs, %d global memory modules, %d-port networks\n",
		m.NumCEs(), m.Global.Modules(), m.Fwd.Ports())
	fmt.Printf("traffic: %d forward packets, %d replies, %d flops counted\n",
		m.Fwd.Injected, m.Rev.Injected, m.TotalFlops())
	fmt.Printf("rate: %.1f MFLOPS\n", core.MFLOPS(m.TotalFlops(), elapsed))
	// Output:
	// sum of squares 0..1023 = 357389824 (expected 357389824)
	// elapsed: 793 cycles = 134.8 us simulated (includes the ~90 us XDOALL startup)
	// machine: 32 CEs, 32 global memory modules, 64-port networks
	// traffic: 1088 forward packets, 1088 replies, 2048 flops counted
	// rate: 15.2 MFLOPS
}

// ExampleBarrier shows the memory-based synchronization instructions at
// work. Each global memory module executes Test-And-Set and the
// Test-And-Operate family in its synchronization processor, so a lock,
// a loop counter or a barrier arrival is one network round trip. The
// example runs the three uses the paper describes on two clusters:
// mutual exclusion, loop self-scheduling by fetch-and-add, and a
// multicluster barrier built by the runtime library.
func ExampleBarrier() {
	m := core.MustNew(core.ConfigClusters(2))
	rt := cedarfort.New(m, cedarfort.DefaultConfig())

	// Test-And-Set: every CE races for one lock word; exactly one wins.
	lock := m.AllocGlobal(1)
	winners := 0
	for id := 0; id < m.NumCEs(); id++ {
		op := isa.NewSync(lock, network.TestAndSet())
		op.OnDone = func(v int64, ok bool) {
			if ok {
				winners++
			}
		}
		m.Dispatch(id, isa.NewSeq(op))
	}
	if _, err := m.RunUntilIdle(100000); err != nil {
		panic(err)
	}
	fmt.Printf("Test-And-Set: %d of %d CEs acquired the lock (lock word = %d)\n",
		winners, m.NumCEs(), m.Global.LoadInt(lock))

	// Fetch-and-add self-scheduling: a shared counter hands out loop
	// iterations; every iteration is claimed exactly once.
	counter := m.AllocGlobal(1)
	const iters = 100
	claimed := make([]int, iters)
	for id := 0; id < m.NumCEs(); id++ {
		done := false
		g := isa.NewGen(func(g *isa.Gen) bool {
			if done {
				return false
			}
			claim := isa.NewSync(counter, network.FetchAndAdd(1))
			claim.OnDone = func(v int64, ok bool) {
				if int(v) >= iters {
					done = true
					return
				}
				work := isa.NewCompute(25)
				work.Do = func() { claimed[v]++ }
				g.Emit(work)
			}
			g.Emit(claim)
			return true
		})
		m.Dispatch(id, g)
	}
	if _, err := m.RunUntilIdle(1000000); err != nil {
		panic(err)
	}
	for i, c := range claimed {
		if c != 1 {
			panic(fmt.Sprintf("iteration %d claimed %d times", i, c))
		}
	}
	fmt.Printf("fetch-and-add: %d iterations self-scheduled over %d CEs, each exactly once\n",
		iters, m.NumCEs())

	// A sense-reversing barrier across both clusters, reused three times.
	bar := rt.NewBarrier(m.NumCEs())
	phaseEnd := make([]int, 3)
	for id := 0; id < m.NumCEs(); id++ {
		g := isa.NewGen(func(g *isa.Gen) bool { return false })
		for ep := 0; ep < 3; ep++ {
			g.Emit(isa.NewCompute(sim.Cycle(10 + 5*(id%7))))
			bar.Emit(g)
			after := isa.NewCompute(1)
			after.Do = func() { phaseEnd[ep]++ }
			g.Emit(after)
		}
		m.Dispatch(id, g)
	}
	if _, err := m.RunUntilIdle(1000000); err != nil {
		panic(err)
	}
	fmt.Printf("barrier: 3 epochs completed by all %d CEs (%v crossings)\n",
		m.NumCEs(), phaseEnd)
	// Output:
	// Test-And-Set: 1 of 16 CEs acquired the lock (lock word = 1)
	// fetch-and-add: 100 iterations self-scheduled over 16 CEs, each exactly once
	// barrier: 3 epochs completed by all 16 CEs ([16 16 16] crossings)
}

// ExampleMoveOps localizes data the way CEDAR FORTRAN does (Section
// 3.2): it moves a matrix's row blocks into the two cluster memories,
// then runs two affinity-scheduled SDOALLs whose inner CDOALLs read only
// cluster-local rows. The same two passes streamed from global memory
// are the baseline.
func ExampleMoveOps() {
	const (
		rows  = 64
		width = 512 // words per row
	)
	// passes runs two passes of row-wise work and returns their cycles.
	// With distribute the rows are first moved into cluster memory.
	passes := func(distribute bool) sim.Cycle {
		m := core.MustNew(core.ConfigClusters(2))
		rt := cedarfort.New(m, cedarfort.DefaultConfig())
		gBase := rt.Global(rows * width)

		// Rows alternate between clusters, matching the affinity
		// schedule's iter % clusters assignment.
		local := make([]isa.Addr, rows)
		if distribute {
			for i := range local {
				local[i] = rt.ClusterLocal(i%2, width)
			}
			if _, err := rt.SDOALL(rows, true, func(ctx *cedarfort.Ctx, row int) {
				src := isa.Addr{Space: isa.Global, Word: gBase.Word + uint64(row*width)}
				ctx.Emit(cedarfort.MoveOps(local[row], src, width, nil)...)
			}); err != nil {
				panic(err)
			}
		}

		var total sim.Cycle
		for pass := 0; pass < 2; pass++ {
			elapsed, err := rt.SDOALL(rows, true, func(ctx *cedarfort.Ctx, row int) {
				ctx.CDOALL(width/32, cedarfort.SelfScheduled, func(ictx *cedarfort.Ctx, strip int) {
					if distribute {
						addr := isa.Addr{Space: isa.Cluster, Word: local[row].Word + uint64(strip*32)}
						ictx.Emit(isa.NewVectorLoad(addr, 32, 1, 2, false))
					} else {
						addr := isa.Addr{Space: isa.Global, Word: gBase.Word + uint64(row*width+strip*32)}
						ictx.Emit(
							isa.NewPrefetch(addr, 32, 1),
							isa.NewVectorLoad(addr, 32, 1, 2, true),
						)
					}
				})
			})
			if err != nil {
				panic(err)
			}
			total += elapsed
		}
		return total
	}

	global, dist := passes(false), passes(true)
	fmt.Printf("two passes over %d rows x %d words on 2 clusters:\n", rows, width)
	fmt.Printf("  from global memory every pass:  %7d cycles (%.2f ms)\n", global, global.Seconds()*1e3)
	fmt.Printf("  distributed to cluster memory:  %7d cycles (%.2f ms, excluding the one-time move)\n",
		dist, dist.Seconds()*1e3)
	fmt.Printf("  benefit: %.2fx on the compute passes\n", float64(global)/float64(dist))
	fmt.Println()
	fmt.Println("(the affinity schedule keeps iteration i on cluster i mod 2 across")
	fmt.Println(" successive SDOALLs, so the distributed rows stay local — the")
	fmt.Println(" mechanism CEDAR FORTRAN uses for data localization)")
	// Output:
	// two passes over 64 rows x 512 words on 2 clusters:
	//   from global memory every pass:    10010 cycles (1.70 ms)
	//   distributed to cluster memory:     8936 cycles (1.52 ms, excluding the one-time move)
	//   benefit: 1.12x on the compute passes
	//
	// (the affinity schedule keeps iteration i on cluster i mod 2 across
	//  successive SDOALLs, so the distributed rows stay local — the
	//  mechanism CEDAR FORTRAN uses for data localization)
}
