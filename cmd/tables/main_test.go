package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestUsageErrors: an unknown exhibit name or -code value, an -n below
// 1, a Perfect-model rate the models cannot run under and a memory-probe
// setting memchar cannot run exit 2 before anything is printed, naming
// the known values or the bad flag; a size the kernel cannot split
// exits 1 with the kernel's error, not a panic.
func TestUsageErrors(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "tables")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args   []string
		status int
		want   string // substring of stderr: a known value or the bad setting
	}{
		{[]string{"table5", "table7"}, 2, "memstride"},
		{[]string{"-code", "LINPACK", "table5", "codes"}, 2, "DYFESM"},
		{[]string{"-n", "0", "table1"}, 2, "-n 0"},
		{[]string{"-n", "-64", "table1"}, 2, "-n -64"},
		{[]string{"-prefrate", "-1", "table3"}, 2, "VectorGlobalPref"},
		{[]string{"-prefrate", "0", "table3"}, 2, "VectorGlobalPref"},
		{[]string{"-n", "33", "table1"}, 1, "not a multiple of 32"},
		{[]string{"-sources", "-1", "-rate", "0.5", "memload"}, 2, "-sources -1"},
		{[]string{"-sources", "65", "memload"}, 2, "-sources 65"},
		{[]string{"-sources", "8", "-rate", "-1", "memload"}, 2, "-rate -1"},
		{[]string{"-sources", "8", "-rate", "1.5", "memload"}, 2, "-rate 1.5"},
		{[]string{"-sources", "8", "-rate", "0.5", "-writes", "1", "memload"}, 2, "-writes 1"},
		{[]string{"-writes", "-1", "memload"}, 2, "-writes -1"},
		{[]string{"-cycles", "0", "memstride"}, 2, "-cycles 0"},
		{[]string{"-cycles", "-5", "memload"}, 2, "-cycles -5"},
	} {
		cmd := exec.Command(bin, tc.args...)
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != tc.status {
			t.Fatalf("%v: %v, want exit status %d\nstderr: %s", tc.args, err, tc.status, stderr.String())
		}
		if stdout.Len() > 0 || !strings.Contains(stderr.String(), tc.want) || strings.Contains(stderr.String(), "goroutine") {
			t.Fatalf("%v: stdout %q, stderr %q; want no output and a message naming %q", tc.args, stdout.String(), stderr.String(), tc.want)
		}
	}
}
