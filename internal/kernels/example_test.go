package kernels_test

import (
	"fmt"

	"repro/internal/cedarfort"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/workload"
)

// ExampleRun runs two of the paper's kernels by name on one cluster: the
// Table 1 rank-64 update in cache mode, and 20 prefetched iterations of
// CG, whose note reports how far the solver converged.
func ExampleRun() {
	for _, k := range []struct {
		name string
		p    workload.Params
	}{
		{"rk", workload.Params{Mode: workload.GMCache, Size: 64}},
		{"cg", workload.Params{Size: 1024, Iterations: 20, Prefetch: true}},
	} {
		m := core.MustNew(core.ConfigClusters(1))
		res, err := kernels.Run(k.name, m, k.p, workload.Attachments{})
		if err != nil {
			panic(err)
		}
		fmt.Println(res)
		for _, note := range res.Notes {
			fmt.Println(note)
		}
	}
	// Output:
	// RK GM/cache    P=8      54792 cycles     56.3 MFLOPS
	// CG GM/pref     P=8      84389 cycles     27.3 MFLOPS
	// CG residual after 20 iterations: 3.570e-11
}

// ExampleRunRank64 runs the Table 1 kernel in cache mode on one cluster and
// verifies the numerical result against the serial reference.
func ExampleRunRank64() {
	in := kernels.NewRank64Input(64)
	want := kernels.ReferenceRank64(in)
	m := core.MustNew(core.ConfigClusters(1))
	res, err := kernels.RunRank64(m, in, workload.Params{Mode: workload.GMCache})
	if err != nil {
		panic(err)
	}
	exact := true
	for i := range want {
		if in.C[i] != want[i] {
			exact = false
		}
	}
	fmt.Printf("flops=%d exact=%v\n", res.Flops, exact)
	// Output:
	// flops=524288 exact=true
}

// ExampleRunCG solves a small 5-diagonal system in parallel and reports
// convergence.
func ExampleRunCG() {
	m := core.MustNew(core.ConfigClusters(1))
	rt := cedarfort.New(m, cedarfort.DefaultConfig())
	p := kernels.NewCGProblem(1024, 64)
	res, err := kernels.RunCG(m, rt, p, workload.Params{Iterations: 20, Prefetch: true})
	if err != nil {
		panic(err)
	}
	fmt.Printf("converged=%v\n", res.FinalResidual < 1e-6)
	// Output:
	// converged=true
}
