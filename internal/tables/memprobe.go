package tables

import (
	"fmt"

	"repro/internal/memchar"
	"repro/internal/report"
	"repro/internal/sim"
)

// RunMemLoad is the [GJTV91]-style load-latency probe of the global
// network and memory path alone, at o.Sources sources and o.Rate
// requests per source and cycle, or over their sweeps when zero.
func RunMemLoad(o Options) (*report.Table, error) {
	t := report.NewTable(
		"Global network + memory load-latency (round trip; unloaded minimum 8 cycles)",
		"sources", "rate/CE", "offered w/cyc", "delivered w/cyc", "latency (cyc)")
	srcList := []int{8, 16, 32}
	if o.Sources > 0 {
		srcList = []int{o.Sources}
	}
	rateList := []float64{0.1, 0.25, 0.5, 0.75, 1.0}
	if o.Rate > 0 {
		rateList = []float64{o.Rate}
	}
	var overflow int64
	for _, s := range srcList {
		for _, r := range rateList {
			res, err := memchar.Run(memchar.Config{
				Sources: s, RatePerSource: r, Stride: 1,
				WriteFraction: o.Writes, Cycles: sim.Cycle(o.Cycles), Ideal: o.Ideal,
			})
			if err != nil {
				return nil, err
			}
			t.AddRow(fmt.Sprintf("%d", s), fmt.Sprintf("%.2f", r),
				fmt.Sprintf("%.2f", res.OfferedWordsPerCycle),
				fmt.Sprintf("%.2f", res.DeliveredWordsPerCycle),
				report.F(res.MeanLatency))
			overflow += res.LatencyHist.Overflow
		}
	}
	t.AddNote("aggregate memory capacity: 32 modules x 0.5 requests/cycle = 16 words/cycle (768 MB/s)")
	t.NoteOverflow("latency histogram", overflow)
	if o.Ideal {
		t.AddNote("contentionless fabric: any residual loss is the memory modules' own")
	}
	return t, nil
}

// RunMemStride sweeps the access stride of 8 full-rate sources: strides
// sharing factors with the 32-module interleave alias onto few modules.
func RunMemStride(o Options) (*report.Table, error) {
	t := report.NewTable(
		"Stride sweep: delivered bandwidth vs access stride (8 sources, full rate)",
		"stride", "delivered w/cyc", "latency (cyc)", "note")
	var overflow int64
	for _, st := range []int{1, 2, 3, 4, 8, 16, 31, 32, 33, 64} {
		res, err := memchar.Run(memchar.Config{
			Sources: 8, RatePerSource: 1, Stride: st,
			Cycles: sim.Cycle(o.Cycles), Ideal: o.Ideal,
		})
		if err != nil {
			return nil, err
		}
		overflow += res.LatencyHist.Overflow
		mods := 32 / min(st&-st, 32) // 32 over the power of two in the stride
		note := fmt.Sprintf("%d modules per stream", mods)
		if mods == 1 {
			note = "aliases every request to one module"
		} else if mods == 32 {
			note = "conflict-free (odd stride)"
		}
		t.AddRow(fmt.Sprintf("%d", st),
			fmt.Sprintf("%.2f", res.DeliveredWordsPerCycle),
			report.F(res.MeanLatency), note)
	}
	t.AddNote("double-word interleave: stride patterns sharing factors with 32 concentrate on few modules")
	t.NoteOverflow("latency histogram", overflow)
	return t, nil
}
