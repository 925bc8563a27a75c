// Command tables prints exhibits of the internal/tables catalog by name,
// in catalog order; with none named, the paper's evaluation plus PPT5
// and the data-size study. Flags come before the names.
//
//	tables -n 512 table1                    # larger rank-64 problem
//	tables -code DYFESM codes               # one Perfect code in detail
//	tables -claimslow 60e-6 table3 table4   # what-if: costlier claims
//	tables -sources 32 -rate 1 memload      # one load-latency point
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/tables"
)

func main() {
	o := tables.DefaultOptions()
	flag.IntVar(&o.N, "n", o.N, "rank-64 matrix order for table1 (paper: 1024)")
	flag.BoolVar(&o.Quick, "quick", false, "reduced sizes for a fast pass (forces -n 64; smaller scal and ppt5 grids)")
	flag.StringVar(&o.Code, "code", "", "codes: show one Perfect code (default all)")
	flag.Float64Var(&o.Rates.VectorGlobalPref, "prefrate", o.Rates.VectorGlobalPref, "prefetched global vector MFLOPS/CE (Perfect-model exhibits)")
	flag.Float64Var(&o.Rates.VectorLocal, "localrate", o.Rates.VectorLocal, "cluster-local vector MFLOPS/CE (Perfect-model exhibits)")
	flag.Float64Var(&o.Rates.ClaimSlowSeconds, "claimslow", o.Rates.ClaimSlowSeconds, "non-Cedar-sync claim seconds (Perfect-model exhibits)")
	flag.IntVar(&o.Sources, "sources", 0, "memload: fixed source count (0 = sweep 8/16/32)")
	flag.Float64Var(&o.Rate, "rate", 0, "memload: fixed issue rate per source (0 = sweep)")
	flag.Float64Var(&o.Writes, "writes", 0, "memload: fraction of requests that are writes")
	flag.IntVar(&o.Cycles, "cycles", o.Cycles, "memload, memstride: simulated cycles per point")
	flag.BoolVar(&o.Ideal, "ideal", false, "memload, memstride: use the contentionless fabric")
	flag.Usage = func() {
		w := flag.CommandLine.Output()
		fmt.Fprintln(w, "usage: tables [flags] [exhibit ...]\n\nexhibits (* = printed when none is named):")
		for _, e := range tables.Catalog {
			mark := map[bool]string{true: "*", false: " "}[e.Default]
			fmt.Fprintf(w, "  %s %-10s %s\n", mark, e.Name, e.About)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	if o.Quick {
		o.N = 64
	}
	sel, err := tables.Select(flag.Args())
	if err == nil {
		err = o.Check()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		flag.Usage()
		os.Exit(2)
	}
	for _, e := range sel {
		d, err := e.Run(o)
		if err == nil {
			err = d.Render(os.Stdout)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "tables:", err)
			os.Exit(1)
		}
	}
}
