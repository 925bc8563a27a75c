package job

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/workload"
)

// TestCanonicalGolden pins the canonical bytes. These strings are the
// fingerprint contract: cached results key on their SHA-256, so any
// encoding change (field order, a new field, a default) invalidates
// every persisted fingerprint and must show up here as a deliberate
// golden update.
func TestCanonicalGolden(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{
			"defaults materialized",
			Spec{Workload: "rk"},
			`{"clusters":4,"engine":"wake-cached","fault_kinds":[],"fault_rate":0,"fault_seed":0,"iterations":0,"mode":"pref","par_workers":0,"prefetch":true,"probe":true,"size":0,"topology":"cedar","workload":"rk"}`,
		},
		{
			"every field set",
			Spec{Workload: "cg", Mode: "cache", Prefetch: Bool(false), Probe: Bool(false),
				Iterations: 7, Size: 8192, Clusters: 2, Topology: "scaled", Engine: "naive",
				FaultSeed: 9, FaultRate: 0.25, FaultKinds: []string{"net-stall", "ce-drop"}},
			`{"clusters":2,"engine":"wake-cached","fault_kinds":["ce-drop","net-stall"],"fault_rate":0.25,"fault_seed":9,"iterations":7,"mode":"cache","par_workers":0,"prefetch":false,"probe":false,"size":8192,"topology":"scaled","workload":"cg"}`,
		},
		{
			"fault fields canonicalized away at rate zero",
			Spec{Workload: "vl", FaultSeed: 1234, FaultKinds: []string{"net-stall"}},
			`{"clusters":4,"engine":"wake-cached","fault_kinds":[],"fault_rate":0,"fault_seed":0,"iterations":0,"mode":"pref","par_workers":0,"prefetch":true,"probe":true,"size":0,"topology":"cedar","workload":"vl"}`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.spec.Canonical()
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != tc.want {
				t.Fatalf("canonical bytes changed:\n got %s\nwant %s", got, tc.want)
			}
		})
	}
}

// TestFingerprintCollapsesSpellings: specs that describe the same
// simulation must fingerprint identically however they were spelled —
// JSON field order, explicit defaults, kind-list order and duplicates,
// an inert fault seed and the engine path (bit-identical on both) must
// all collapse.
func TestFingerprintCollapsesSpellings(t *testing.T) {
	base, err := Spec{Workload: "tm", Size: 2048}.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	same := []struct {
		name string
		json string
	}{
		{"field order", `{"size":2048,"workload":"tm"}`},
		{"explicit defaults", `{"workload":"tm","size":2048,"mode":"pref","prefetch":true,"probe":true,"clusters":4,"topology":"cedar","engine":"wake-cached"}`},
		{"inert fault seed", `{"workload":"tm","size":2048,"fault_seed":77}`},
		{"naive engine", `{"workload":"tm","size":2048,"engine":"naive"}`},
	}
	for _, tc := range same {
		specs, err := Decode(strings.NewReader(tc.json))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		fp, err := specs[0].Fingerprint()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if fp != base {
			t.Fatalf("%s: fingerprint %s != base %s", tc.name, fp, base)
		}
	}

	// Kind-list order and duplicates collapse (with a live fault rate).
	a, _ := Spec{Workload: "tm", FaultRate: 0.5, FaultKinds: []string{"net-stall", "ce-drop"}}.Fingerprint()
	b, _ := Spec{Workload: "tm", FaultRate: 0.5, FaultKinds: []string{"ce-drop", "net-stall", "ce-drop"}}.Fingerprint()
	if a != b {
		t.Fatalf("kind-list order changed the fingerprint: %s vs %s", a, b)
	}
}

// TestFingerprintSeparatesSpecs: any semantic difference must separate
// fingerprints — the cache must never serve one config's results for
// another.
func TestFingerprintSeparatesSpecs(t *testing.T) {
	base := Spec{Workload: "vl", Size: 4096}
	variants := []Spec{
		{Workload: "tm", Size: 4096},
		{Workload: "vl", Size: 8192},
		{Workload: "vl", Size: 4096, Clusters: 2},
		{Workload: "vl", Size: 4096, Prefetch: Bool(false)},
		{Workload: "vl", Size: 4096, Probe: Bool(false)},
		{Workload: "vl", Size: 4096, Iterations: 2},
		{Workload: "vl", Size: 4096, Topology: "scaled"},
		{Workload: "vl", Size: 4096, FaultRate: 0.5},
		{Workload: "vl", Size: 4096, FaultRate: 0.5, FaultSeed: 2},
		{Workload: "vl", Size: 4096, FaultRate: 0.5, FaultKinds: []string{"net-stall"}},
	}
	seen := map[string]string{}
	fp, err := base.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	seen[fp] = "base"
	for i, v := range variants {
		fp, err := v.Fingerprint()
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if prev, dup := seen[fp]; dup {
			t.Fatalf("variant %d collides with %s: %+v", i, prev, v)
		}
		seen[fp] = v.Workload
	}
}

// TestSpecValidation: every malformed field dies as a *ValidationError
// naming the field — the same rules cedarsim enforces at exit 2 and
// cedard at HTTP 400.
func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name  string
		spec  Spec
		field string
	}{
		{"missing workload", Spec{}, "workload"},
		{"unknown mode", Spec{Workload: "rk", Mode: "warp"}, "mode"},
		{"negative size", Spec{Workload: "rk", Size: -1}, "size"},
		{"negative iterations", Spec{Workload: "rk", Iterations: -3}, "iterations"},
		{"unknown topology", Spec{Workload: "rk", Topology: "torus"}, "topology"},
		{"clusters beyond cedar", Spec{Workload: "rk", Clusters: 5}, "clusters"},
		{"clusters beyond scaled", Spec{Workload: "rk", Topology: "scaled", Clusters: 65}, "clusters"},
		{"unknown engine", Spec{Workload: "rk", Engine: "warp"}, "engine"},
		{"retired parallel engine", Spec{Workload: "rk", Engine: "parallel"}, "engine"},
		{"retired quiescent engine", Spec{Workload: "rk", Engine: "quiescent"}, "engine"},
		{"fault rate above one", Spec{Workload: "rk", FaultRate: 1.5}, "fault_rate"},
		{"negative fault seed", Spec{Workload: "rk", FaultSeed: -1, FaultRate: 0.5}, "fault_seed"},
		{"unknown fault kind", Spec{Workload: "rk", FaultKinds: []string{"gamma-ray"}}, "fault_kinds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			var verr *ValidationError
			if !errors.As(err, &verr) {
				t.Fatalf("got %v, want a *ValidationError", err)
			}
			if verr.Field != tc.field {
				t.Fatalf("error names field %q, want %q (%v)", verr.Field, tc.field, err)
			}
		})
	}
	// Scaled topology legitimately exceeds cedar's 4-cluster bound.
	if err := (Spec{Workload: "rk", Topology: "scaled", Clusters: 16}).Validate(); err != nil {
		t.Fatalf("16-cluster scaled spec rejected: %v", err)
	}
}

// TestSpecParams: the workload-level fields map onto workload.Params
// with the Spec defaults applied.
func TestSpecParams(t *testing.T) {
	n, err := Spec{Workload: "rk", Mode: "cache", Size: 256}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	want := workload.Params{Mode: workload.GMCache, Prefetch: true, Probe: true, Size: 256}
	if got := n.Params(); got != want {
		t.Fatalf("Params() = %+v, want %+v", got, want)
	}
}

// TestDecodeStrict: unknown fields, malformed bodies, empty and
// trailing batches are client errors, not defaults.
func TestDecodeStrict(t *testing.T) {
	good := `[{"workload":"rk"},{"workload":"vl","size":1024}]`
	specs, err := Decode(strings.NewReader(good))
	if err != nil || len(specs) != 2 {
		t.Fatalf("Decode(batch) = %d specs, %v", len(specs), err)
	}
	single, err := Decode(strings.NewReader(`{"workload":"rk"}`))
	if err != nil || len(single) != 1 {
		t.Fatalf("Decode(single) = %d specs, %v", len(single), err)
	}
	for _, bad := range []string{
		`{"workload":"rk","iters":5}`,         // unknown field (typo of iterations)
		`{"workload":"rk","par_workers":2}`,   // the retired parallel engine's knob
		`[{"workload":"rk","nope":1}]`,        // unknown field inside a batch
		`{"workload":"rk"} {"workload":"vl"}`, // trailing document
		`[]`,                                  // empty batch
		`not json`,                            // garbage
	} {
		if _, err := Decode(strings.NewReader(bad)); err == nil {
			t.Fatalf("Decode(%q) accepted", bad)
		} else {
			var verr *ValidationError
			if !errors.As(err, &verr) {
				t.Fatalf("Decode(%q) error %v is not a *ValidationError", bad, err)
			}
		}
	}
}

// FuzzDecode: no body makes Decode panic or fail with anything but a
// *ValidationError, and every spec it yields that validates normalizes
// idempotently and fingerprints like its normalized copy and like the
// same spec on the other engine path. The seeds are the bodies the spec
// and cedard tests post.
func FuzzDecode(f *testing.F) {
	for _, body := range []string{
		`{"workload":"rk"}`,
		`[{"workload":"rk"},{"workload":"vl","size":1024}]`,
		`{"size":2048,"workload":"tm"}`,
		`{"workload":"tm","size":2048,"mode":"pref","prefetch":true,"probe":true,"clusters":4,"topology":"cedar","engine":"wake-cached"}`,
		`{"workload":"tm","size":2048,"fault_seed":77}`,
		`{"workload":"tm","size":2048,"engine":"naive"}`,
		`{"workload":"tm","fault_rate":0.5,"fault_kinds":["ce-drop","net-stall","ce-drop"]}`,
		`{"workload":"cg","mode":"cache","prefetch":false,"probe":false,"iterations":7,"size":8192,"clusters":2,"topology":"scaled","engine":"naive","fault_seed":9,"fault_rate":0.25}`,
		`[{"workload":"vl","clusters":1,"size":1024},{"workload":"tm","clusters":1,"size":1024},{"workload":"vl","clusters":1,"size":1024,"prefetch":false}]`,
		`[{"workload":"vl","clusters":1,"size":2048},{"size":2048,"clusters":1,"workload":"vl","mode":"pref"}]`,
		`[{"workload":"vl","clusters":1,"size":1024},{"workload":"rk","clusters":1,"size":64}]`,
		`[{"workload":"vl","clusters":1,"engine":"naive"},{"workload":"vl","clusters":1}]`,
		`[{"workload":"vl","clusters":1,"size":1024},{"workload":"linpack"}]`,
		`{"workload":"vl","size":-1}`,
		`{"workload":"vl","engine":"parallel"}`,
		`{"workload":"rk","iters":5}`,
		`{"workload":"rk","par_workers":2}`,
		`[{"workload":"rk","nope":1}]`,
		`{"workload":"rk"} {"workload":"vl"}`,
		`[]`,
		`not json`,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		specs, err := Decode(strings.NewReader(body))
		if err != nil {
			var verr *ValidationError
			if !errors.As(err, &verr) {
				t.Fatalf("Decode error %v is not a *ValidationError", err)
			}
			return
		}
		for i, s := range specs {
			n, err := s.Normalized()
			if err != nil {
				continue
			}
			again, err := n.Normalized()
			if err != nil || !reflect.DeepEqual(again, n) {
				t.Fatalf("spec %d: Normalized is not idempotent: %+v then %+v (%v)", i, n, again, err)
			}
			other := n
			other.Engine = "naive"
			if n.Engine == "naive" {
				other.Engine = "wake-cached"
			}
			fp, err1 := s.Fingerprint()
			nfp, err2 := n.Fingerprint()
			ofp, err3 := other.Fingerprint()
			if err := errors.Join(err1, err2, err3); err != nil {
				t.Fatalf("spec %d validates but does not fingerprint: %v", i, err)
			}
			if fp != nfp || fp != ofp {
				t.Fatalf("spec %d: fingerprint %s, normalized %s, other engine %s", i, fp, nfp, ofp)
			}
		}
	})
}
