package tables

import (
	"errors"
	"fmt"

	"repro/internal/cedarfort"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/report"
	"repro/internal/workload"
)

// RunAblations varies one design choice at a time on the workload that
// exposes it: the CE's outstanding-request limit, the switch queue
// depth, omega against a contentionless fabric (the paper's [Turn93]
// claim), Cedar against 30 us software synchronization, and the cluster
// cache's size and banking. Results carry four significant figures.
func RunAblations() (*report.Table, error) {
	t := report.NewTable("Ablations: one design choice varied at a time (simulated)",
		"design choice", "setting", "workload", "result")
	var errs []error
	rank64 := func(choice, setting string, clusters int, mode workload.Mode, alter func(*core.Config)) {
		cfg := core.ConfigClusters(clusters)
		alter(&cfg)
		res, err := kernels.Run("rk", core.MustNew(cfg), workload.Params{Mode: mode, Size: 64}, workload.Attachments{})
		errs = append(errs, err)
		t.AddRow(choice, setting, fmt.Sprintf("rank-64 n=64 %v, %d cl.", mode, clusters),
			fmt.Sprintf("%#.4g MFLOPS", res.MFLOPS))
	}
	for _, lim := range []int{1, 2, 4, 8} {
		rank64("CE outstanding requests", fmt.Sprintf("limit %d", lim), 1, workload.GMNoPrefetch,
			func(c *core.Config) { c.CE.MaxOutstanding = lim })
	}
	for _, qw := range []int{2, 8} {
		rank64("switch queue depth", fmt.Sprintf("%d words", qw), 4, workload.GMPrefetch,
			func(c *core.Config) { c.NetQueueWords = qw })
	}
	rank64("network fabric", "omega", 4, workload.GMPrefetch, func(*core.Config) {})
	rank64("network fabric", "ideal", 4, workload.GMPrefetch, func(c *core.Config) { c.IdealNetwork = true })
	for _, setting := range []string{"Cedar sync", "software sync"} {
		cfg := cedarfort.DefaultConfig()
		cfg.UseCedarSync = setting == "Cedar sync"
		cycles, err := cedarfort.New(core.MustNew(core.ConfigClusters(1)), cfg).XDOALL(128, cedarfort.SelfScheduled,
			func(ctx *cedarfort.Ctx, iter int) { ctx.Emit(isa.NewCompute(100)) })
		errs = append(errs, err)
		t.AddRow("loop self-scheduling", setting, "XDOALL 128 x 100 cycles, 1 cl.",
			fmt.Sprintf("%#.4g us", cycles.Seconds()*1e6))
	}
	rank64("cluster cache", "as built", 1, workload.GMCache, func(*core.Config) {})
	rank64("cluster cache", "quarter size", 1, workload.GMCache, func(c *core.Config) { c.Cache.Words = 16 << 10 })
	rank64("cluster cache", "single bank", 1, workload.GMCache, func(c *core.Config) {
		c.Cache.Banks = 1
		c.Cache.BankAccessesPerCycle = 1
	})
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("ablations: %w", err)
	}
	t.AddNote("as built: limit 2, 2-word queues, omega, Cedar sync, a 512 KB cache of 4 two-port banks")
	return t, nil
}
