package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/job"
	"repro/internal/job/runner"
	"repro/internal/workload"
)

// buildBinary compiles cedarsim once per test binary into a temp dir.
func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "cedarsim")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestFlagValidation: nonsensical flag values must die up front as
// usage errors — exit status 2 with a message naming the flag — not
// surface as a confusing mid-run failure or, worse, a silent misrun.
func TestFlagValidation(t *testing.T) {
	bin := buildBinary(t)
	cases := []struct {
		name string
		args []string
		want string // substring of stderr
	}{
		{"unknown engine", []string{"-engine", "warp"}, "-engine"},
		{"retired parallel engine", []string{"-engine", "parallel"}, "-engine"},
		{"retired quiescent engine", []string{"-engine", "quiescent"}, "-engine"},
		{"zero sample interval", []string{"-sample-every", "0"}, "-sample-every"},
		{"negative sample interval", []string{"-sample-every", "-5"}, "-sample-every"},
		{"negative fault rate", []string{"-fault-rate", "-0.1"}, "-fault-rate"},
		{"fault rate above one", []string{"-fault-rate", "1.5"}, "-fault-rate"},
		{"negative fault seed", []string{"-fault-seed", "-1"}, "-fault-seed"},
		{"unknown fault kind", []string{"-fault-kinds", "gamma-ray"}, "unknown kind"},
		{"fault kinds validated at rate zero", []string{"-fault-rate", "0", "-fault-kinds", "net-stall,typo"}, "unknown kind"},
		{"empty fault kinds entry", []string{"-fault-kinds", ","}, "no kinds named"},
		{"negative problem size", []string{"-n", "-1"}, "size"},
		{"negative iterations", []string{"-iters", "-3"}, "iterations"},
		{"unknown mode", []string{"-mode", "warp"}, "-mode"},
		{"unknown kernel", []string{"-kernel", "linpack"}, "-kernel"},
		{"unknown topology", []string{"-topology", "torus"}, "-topology"},
		{"clusters beyond topology", []string{"-clusters", "5"}, "-clusters"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(bin, tc.args...)
			var stderr strings.Builder
			cmd.Stderr = &stderr
			err := cmd.Run()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("expected a usage-error exit, got %v", err)
			}
			if code := ee.ExitCode(); code != 2 {
				t.Fatalf("exit status %d, want 2\nstderr: %s", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("stderr does not mention %q:\n%s", tc.want, stderr.String())
			}
		})
	}
}

// TestBareKernelRuns: every registered workload runs with only -kernel
// set, and runs the job cedard runs for {"workload": name}: the size
// and iteration flags default to the kernel's own defaults.
func TestBareKernelRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the binary once per workload; skipped with -short")
	}
	bin := buildBinary(t)
	for _, name := range workload.Names() {
		out, err := exec.Command(bin, "-kernel", name).CombinedOutput()
		if err != nil {
			t.Fatalf("-kernel %s: %v\n%s", name, err, out)
		}
		want, err := runner.Run(job.Spec{Workload: name})
		if err != nil {
			t.Fatal(err)
		}
		cycles := fmt.Sprintf("(%d cycles at", want.Cycles)
		found := false
		for _, l := range strings.Split(string(out), "\n") {
			found = found || strings.HasPrefix(l, "simulated time:") && strings.Contains(l, cycles)
		}
		if !found {
			t.Fatalf("-kernel %s: no simulated-time line with the default Spec's %d cycles:\n%s", name, want.Cycles, out)
		}
	}
}

// TestEngineFlagRuns: every -engine value must complete a small kernel
// and report the same cycle count (spot-checking the CLI wiring of the
// equivalence the engine suites prove exhaustively).
func TestEngineFlagRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the binary twice; skipped with -short")
	}
	bin := buildBinary(t)
	var cycles string
	for _, eng := range []string{"naive", "wake-cached"} {
		cmd := exec.Command(bin, "-engine", eng, "-kernel", "vl", "-clusters", "1", "-n", "1024")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("-engine %s: %v\n%s", eng, err, out)
		}
		line := ""
		for _, l := range strings.Split(string(out), "\n") {
			if strings.Contains(l, "simulated time:") {
				line = l
				break
			}
		}
		if line == "" {
			t.Fatalf("-engine %s printed no simulated-time line:\n%s", eng, out)
		}
		if cycles == "" {
			cycles = line
		} else if line != cycles {
			t.Fatalf("-engine %s reported %q, earlier engines %q", eng, line, cycles)
		}
	}
}

// TestFaultKindsFilterRuns: a filtered faulted run completes and its
// census table reports the cluster-internal kinds — the filter reaches
// the injector, and filtered-out kinds stay at zero.
func TestFaultKindsFilterRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the binary; skipped with -short")
	}
	bin := buildBinary(t)
	cmd := exec.Command(bin, "-kernel", "tm", "-clusters", "1", "-n", "2048",
		"-fault-rate", "0.5", "-fault-kinds", "cache-bank-busy,bus-stall,ce-drop", "-noprefetch")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("faulted run failed: %v\n%s", err, out)
	}
	text := string(out)
	if !strings.Contains(text, "Injected faults") {
		t.Fatalf("no fault census table in output:\n%s", text)
	}
	for _, row := range []string{"cache-bank-busy", "bus-stall", "ce-drop"} {
		if !strings.Contains(text, row) {
			t.Fatalf("census table missing a %q row:\n%s", row, text)
		}
	}
	// Filtered-out kinds must report zero injections.
	for _, l := range strings.Split(text, "\n") {
		f := strings.Fields(l)
		if len(f) >= 2 && (f[0] == "net-stall" || f[0] == "mem-busy" || f[0] == "check-stop") {
			if f[len(f)-1] != "0" {
				t.Fatalf("kind %s injected despite the filter: %q", f[0], l)
			}
		}
	}
}
