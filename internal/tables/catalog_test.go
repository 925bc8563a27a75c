package tables

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/job"
	"repro/internal/job/runner"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// The simulated exhibits the tests read, each run once per test binary:
// its shape test and its golden case share the one run.
var (
	table1N64  = sync.OnceValues(func() (*Table1Data, error) { return RunTable1(64) })
	table2Full = sync.OnceValues(func() (*Table2Data, error) { return RunTable2() })
	scalQuick  = sync.OnceValues(func() (*ScalabilityData, error) { return RunScalability(true) })
	ppt5Quick  = sync.OnceValues(func() (*PPT5Data, error) { return RunPPT5(true) })
)

// TestExhibitGolden renders exhibits and compares each with its golden
// file under testdata, so a byte difference is a change in what the
// exhibit says. The analytic files were recorded from the standalone
// table and Perfect-model tools these exhibits moved out of: codes.txt
// is the thirteen single-code views joined by blank lines, and
// claimslow.txt is Tables 3 and 4 with non-Cedar claims at 60 us, and
// fig1.txt prints the as-built machine's parameters. The simulated files
// (Table 1 at n=64, Table 2, and the -quick grids of scal and ppt5) were
// recorded when those exhibits still built their own machines and
// called the kernels directly, and ablations, memload and memstride
// (at the default options) when the paper's parameters were still
// config fields; they skip under -short.
func TestExhibitGolden(t *testing.T) {
	claimSlow := DefaultOptions()
	claimSlow.Rates.ClaimSlowSeconds = 60e-6
	type goldenCase struct {
		file  string
		o     Options
		names []string
		sim   func() (Renderer, error) // a simulated exhibit, in place of names
	}
	cases := []goldenCase{{file: "claimslow", o: claimSlow, names: []string{"table3", "table4"}}}
	for _, name := range []string{"table3", "table4", "table5", "table6", "fig1", "fig3", "sizes", "codes"} {
		cases = append(cases, goldenCase{file: name, o: DefaultOptions(), names: []string{name}})
	}
	cases = append(cases,
		goldenCase{file: "table1-n64", sim: func() (Renderer, error) { return table1N64() }},
		goldenCase{file: "table2", sim: func() (Renderer, error) { return table2Full() }},
		goldenCase{file: "scal-quick", sim: func() (Renderer, error) { return scalQuick() }},
		goldenCase{file: "ppt5-quick", sim: func() (Renderer, error) { return ppt5Quick() }},
		goldenCase{file: "ablations", sim: func() (Renderer, error) { return RunAblations() }},
		goldenCase{file: "memload", sim: func() (Renderer, error) { return RunMemLoad(DefaultOptions()) }},
		goldenCase{file: "memstride", sim: func() (Renderer, error) { return RunMemStride(DefaultOptions()) }})
	for _, c := range cases {
		t.Run(c.file, func(t *testing.T) {
			var runs []func() (Renderer, error)
			if c.sim != nil {
				if testing.Short() {
					t.Skip("simulation-heavy")
				}
				runs = append(runs, c.sim)
			} else {
				sel, err := Select(c.names)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range sel {
					runs = append(runs, func() (Renderer, error) { return e.Run(c.o) })
				}
			}
			var buf bytes.Buffer
			for _, run := range runs {
				d, err := run()
				if err != nil {
					t.Fatal(err)
				}
				if err := d.Render(&buf); err != nil {
					t.Fatal(err)
				}
			}
			golden := filepath.Join("testdata", c.file+".txt")
			if *update {
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run `go test ./internal/tables -run TestExhibitGolden -update` to create it)", err)
			}
			if buf.String() != string(want) {
				got, exp := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
				i := 0
				for i < len(got) && i < len(exp) && got[i] == exp[i] {
					i++
				}
				at := func(lines []string) string {
					if i < len(lines) {
						return lines[i]
					}
					return "<end>"
				}
				t.Fatalf("%s drifted from %s at line %d (re-run with -update if intended):\ngot  %q\nwant %q",
					c.file, golden, i+1, at(got), at(exp))
			}
		})
	}
}

// TestSelect: no names selects the default set, names select in catalog
// order whatever order they are given in, and unknown exhibit or code
// names are errors that list the known ones.
func TestSelect(t *testing.T) {
	names := func(sel []Exhibit) string {
		var s []string
		for _, e := range sel {
			s = append(s, e.Name)
		}
		return strings.Join(s, " ")
	}
	sel, err := Select(nil)
	if got, want := names(sel), "table1 table2 table3 table4 table5 table6 fig3 scal ppt5 sizes"; err != nil || got != want {
		t.Fatalf("default set %q (err %v), want %q", got, err, want)
	}
	sel, err = Select([]string{"ablations", "fig1", "table2", "fig1"})
	if got, want := names(sel), "table2 fig1 ablations"; err != nil || got != want {
		t.Fatalf("selection %q (err %v), want %q", got, err, want)
	}
	if _, err := Select([]string{"table1", "table7"}); err == nil || !strings.Contains(err.Error(), `"table7"`) || !strings.Contains(err.Error(), "memstride") {
		t.Fatalf("unknown exhibit: %v, want an error naming it and the known ones", err)
	}
	o := DefaultOptions()
	o.Code = "LINPACK"
	if err := o.Check(); err == nil || !strings.Contains(err.Error(), "DYFESM") {
		t.Fatalf("unknown code: %v, want an error naming the known ones", err)
	}
}

// TestRunSpecs: an exhibit's cells come back in list order, equal to a
// direct run of each Spec, and of several failing cells the first in
// list order is reported, naming the exhibit and the Spec.
func TestRunSpecs(t *testing.T) {
	specs := []job.Spec{{Workload: "tm", Clusters: 1, Size: 1024}, {Workload: "vl", Clusters: 1, Size: 2048}}
	res, err := runSpecs("test", specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		want, err := runner.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res[i], want) {
			t.Errorf("cell %d: %v, want %v", i, res[i], want)
		}
	}
	specs = append(specs, job.Spec{Workload: "rk", Clusters: 1, Size: 33}, job.Spec{Workload: "vl", Clusters: 1, Size: 1000})
	_, err = runSpecs("test", specs)
	const want = `test {"workload":"rk","size":33,"clusters":1}: kernels: rank-64 n=33 not a multiple of 32`
	if err == nil || err.Error() != want {
		t.Fatalf("got %v, want %q", err, want)
	}
}
