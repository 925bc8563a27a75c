package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestUsageErrors: an unknown exhibit name or -code value exits 2
// before anything is printed, and names the known values.
func TestUsageErrors(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "tables")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args []string
		want string // substring of stderr: a known value
	}{
		{[]string{"table5", "table7"}, "memstride"},
		{[]string{"-code", "LINPACK", "table5", "codes"}, "DYFESM"},
	} {
		cmd := exec.Command(bin, tc.args...)
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Fatalf("%v: %v, want exit status 2\nstderr: %s", tc.args, err, stderr.String())
		}
		if stdout.Len() > 0 || !strings.Contains(stderr.String(), tc.want) {
			t.Fatalf("%v: stdout %q, stderr %q; want no output and a message naming %q", tc.args, stdout.String(), stderr.String(), tc.want)
		}
	}
}
