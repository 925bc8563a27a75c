package tables

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestAnalyticGolden renders the exhibits that need no simulation and
// compares each with its golden file under testdata. The files were
// recorded from the standalone table and Perfect-model tools these
// exhibits moved out of, so a byte difference is a change in what the
// exhibit says. codes.txt is the thirteen single-code views joined by
// blank lines; claimslow.txt is Tables 3 and 4 with non-Cedar claims at
// 60 us.
func TestAnalyticGolden(t *testing.T) {
	claimSlow := DefaultOptions()
	claimSlow.Rates.ClaimSlowSeconds = 60e-6
	type goldenCase struct {
		file  string
		o     Options
		names []string
	}
	cases := []goldenCase{{"claimslow", claimSlow, []string{"table3", "table4"}}}
	for _, name := range []string{"table3", "table4", "table5", "table6", "fig3", "sizes", "codes"} {
		cases = append(cases, goldenCase{name, DefaultOptions(), []string{name}})
	}
	for _, c := range cases {
		t.Run(c.file, func(t *testing.T) {
			sel, err := Select(c.names)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			for _, e := range sel {
				d, err := e.Run(c.o)
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
				t.Fatalf("%v (run `go test ./internal/tables -run TestAnalyticGolden -update` to create it)", err)
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
				t.Fatalf("%v drifted from %s at line %d (re-run with -update if intended):\ngot  %q\nwant %q",
					c.names, golden, i+1, at(got), at(exp))
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
