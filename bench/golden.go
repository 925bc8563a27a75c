package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/job"
	"repro/internal/job/runner"
)

// golden is the pinned witness of one spec's simulation, recorded on
// the naive engine (the ground truth every engine must match bit for
// bit).
type golden struct {
	Spec   string  `json:"spec"`
	Cycles int64   `json:"cycles"`
	Flops  int64   `json:"flops"`
	Check  float64 `json:"check"`
	// RegistryFingerprint is the SHA-256 of job.Result's registry
	// fingerprint text (every architected counter after the run).
	RegistryFingerprint string `json:"registry_fingerprint"`
}

//go:embed testdata/golden.json
var goldenJSON []byte

// goldens maps Spec.Fingerprint() of the default-engine spec to its
// witness.
type goldens map[string]golden

func loadGoldens() (goldens, error) {
	g := goldens{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("testdata/golden.json: %w", err)
	}
	return g, nil
}

func witness(label string, r job.Result) golden {
	sum := sha256.Sum256([]byte(r.RegistryFingerprint))
	return golden{Spec: label, Cycles: r.Cycles, Flops: r.Flops, Check: r.Check,
		RegistryFingerprint: hex.EncodeToString(sum[:])}
}

// verify compares a result against the spec's golden; a mismatch error
// shows both witnesses.
func (g goldens) verify(fp string, s job.Spec, r job.Result) error {
	want, ok := g[fp]
	if !ok {
		return fmt.Errorf("%s: no golden for fingerprint %s", specLabel(s), fp)
	}
	got := witness(want.Spec, r)
	if got != want {
		return fmt.Errorf("%s: result %+v differs from golden %+v", specLabel(s), got, want)
	}
	return nil
}

// goldenSpecs is every spec the benchmark can run: each workload's
// population plus the warm-up jobs.
func goldenSpecs() []job.Spec {
	var out []job.Spec
	seen := map[string]bool{}
	add := func(s job.Spec) {
		fp := mustFingerprint(s)
		if !seen[fp] {
			seen[fp] = true
			out = append(out, s)
		}
	}
	for _, w := range workloads {
		for _, s := range w.population {
			add(s)
		}
		if w.isCedard() {
			add(cedardWarmup)
			continue
		}
		for _, k := range kinds(w.population) {
			add(warmupSpec(k))
		}
	}
	return out
}

// updateGoldens runs every golden spec on the naive engine and writes
// the witnesses, keyed by the default-engine fingerprint, to path.
func updateGoldens(path string) error {
	g := goldens{}
	specs := goldenSpecs()
	for i, s := range specs {
		naive := s
		naive.Engine = "naive"
		res, err := runner.Run(naive)
		if err != nil {
			return fmt.Errorf("%s: %w", specLabel(s), err)
		}
		g[mustFingerprint(s)] = witness(specLabel(s), res)
		fmt.Fprintf(os.Stderr, "golden %d/%d %s: %d cycles\n", i+1, len(specs), specLabel(s), res.Cycles)
	}
	data, err := json.MarshalIndent(g, "", "  ") // map keys come out sorted
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// mustFingerprint fingerprints a spec the benchmark itself defines; an
// error is a bug in the population, not an input problem.
func mustFingerprint(s job.Spec) string {
	fp, err := s.Fingerprint()
	if err != nil {
		panic(fmt.Sprintf("bench spec %s: %v", specLabel(s), err))
	}
	return fp
}
