// Package job defines the canonical, serializable description of one
// simulation — the public API drivers share. A Spec carries everything
// that determines a run's outcome (workload and its parameters, machine
// topology, fault schedule), plus the engine path, which does not, and
// nothing else: no function or interface field can hide in it, so its
// canonical encoding is a sound cache key. The simulator is fully
// deterministic — identical Specs yield bit-identical results — which
// makes Fingerprint the memoization key cedard's result cache and
// in-flight dedupe are built on, and the same Spec→runner path serves
// cedarsim's flag parsing.
//
// Canonicalization contract: Canonical returns deterministic bytes — a
// fixed-order, sorted-key JSON encoding of the normalized spec, with
// every default materialized and semantically inert fields zeroed (a
// fault seed with the fault rate at zero, or the engine path, whose
// results are bit-identical on both paths). Two specs that describe the
// same simulation therefore encode to the same bytes and collide in the
// cache, however their fields were spelled. The golden test pins the
// bytes; changing the encoding invalidates every persisted fingerprint
// and must be deliberate.
package job

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/fault"
	"repro/internal/workload"
)

// Spec describes one simulation job. The zero value of every field
// selects a documented default, so sparse JSON bodies and sparse flag
// sets mean the same run; Normalized materializes the defaults.
type Spec struct {
	// Workload is the registry name of the kernel to run (rk, vl, tm,
	// cg, bdna, mg3d). Required.
	Workload string `json:"workload"`
	// Mode is the rk memory mode: "nopref", "pref" or "cache" (Table
	// 1's three versions). Default "pref".
	Mode string `json:"mode,omitempty"`
	// Prefetch drives global vector operands through the PFUs for
	// kernels with a prefetch toggle. Default true.
	Prefetch *bool `json:"prefetch,omitempty"`
	// Probe attaches the Table 2 performance monitor to CE 0's prefetch
	// unit. Default true.
	Probe *bool `json:"probe,omitempty"`
	// Iterations overrides the kernel's iteration/step count; zero
	// selects the kernel default.
	Iterations int `json:"iterations,omitempty"`
	// Size overrides the kernel's problem size in elements; zero
	// selects the kernel default.
	Size int `json:"size,omitempty"`
	// Clusters is the cluster count. Default 4; the "cedar" topology
	// allows 1..4, "scaled" up to 64.
	Clusters int `json:"clusters,omitempty"`
	// Topology selects the machine builder: "cedar" (the as-built
	// machine scaled to Clusters) or "scaled" (the PPT5 scaled-up
	// configuration: one memory module per CE, deeper networks).
	// Default "cedar".
	Topology string `json:"topology,omitempty"`
	// Engine is the engine path: "naive" or "wake-cached". Results are
	// bit-identical on both paths, so the engine is not part of the
	// fingerprint. Default "wake-cached".
	Engine string `json:"engine,omitempty"`
	// FaultSeed selects the deterministic fault schedule; non-negative.
	// Ignored (and canonicalized away) while FaultRate is zero.
	FaultSeed int64 `json:"fault_seed,omitempty"`
	// FaultRate is the mean injected-fault rate in faults per 10k
	// cycles, in [0,1]. Zero disables fault injection.
	FaultRate float64 `json:"fault_rate,omitempty"`
	// FaultKinds restricts injection to the named kinds (mnemonics from
	// fault.KindNames); empty means all kinds. Ignored (and
	// canonicalized away) while FaultRate is zero.
	FaultKinds []string `json:"fault_kinds,omitempty"`
}

// Bool returns a pointer to v, for Spec literals.
func Bool(v bool) *bool { return &v }

// Spec defaults, materialized by Normalized.
const (
	DefaultMode     = "pref"
	DefaultTopology = "cedar"
	DefaultEngine   = "wake-cached"
	DefaultClusters = 4
)

// EngineNames lists the valid Spec.Engine values. The runner maps them
// onto sim engine modes; results are bit-identical across both.
var EngineNames = []string{"naive", "wake-cached"}

// modeValues maps Spec.Mode names onto workload memory modes.
var modeValues = map[string]workload.Mode{
	"nopref": workload.GMNoPrefetch,
	"pref":   workload.GMPrefetch,
	"cache":  workload.GMCache,
}

// ValidationError reports a Spec no machine can be built for. It is the
// usage-error surface of the job API: cedarsim maps it to exit status 2
// (like a malformed flag) and cedard to HTTP 400.
type ValidationError struct {
	// Field names the offending Spec field in its serialized form.
	Field string
	// Reason says what a legal value looks like.
	Reason string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("job: invalid spec: %s: %s", e.Field, e.Reason)
}

func invalid(field, format string, args ...any) error {
	return &ValidationError{Field: field, Reason: fmt.Sprintf(format, args...)}
}

// Normalized validates s and returns a copy with every default
// materialized and semantically inert fields canonicalized away, so
// that specs describing the same simulation compare (and encode)
// equal. The rules mirror what cedarsim has always enforced at flag
// level; every violation is a *ValidationError.
func (s Spec) Normalized() (Spec, error) {
	n := s
	if n.Workload == "" {
		return Spec{}, invalid("workload", "a workload name is required (one of the registry names)")
	}
	if n.Mode == "" {
		n.Mode = DefaultMode
	}
	if _, ok := modeValues[n.Mode]; !ok {
		return Spec{}, invalid("mode", "unknown mode %q (nopref, pref or cache)", n.Mode)
	}
	if n.Prefetch == nil {
		n.Prefetch = Bool(true)
	} else { // decouple from the caller's pointer
		n.Prefetch = Bool(*n.Prefetch)
	}
	if n.Probe == nil {
		n.Probe = Bool(true)
	} else {
		n.Probe = Bool(*n.Probe)
	}
	if n.Size < 0 {
		return Spec{}, invalid("size", "cannot be negative (0 selects the kernel default)")
	}
	if n.Iterations < 0 {
		return Spec{}, invalid("iterations", "cannot be negative (0 selects the kernel default)")
	}
	if n.Topology == "" {
		n.Topology = DefaultTopology
	}
	maxClusters := 0
	switch n.Topology {
	case "cedar":
		maxClusters = 4
	case "scaled":
		maxClusters = 64
	default:
		return Spec{}, invalid("topology", "unknown topology %q (cedar or scaled)", n.Topology)
	}
	if n.Clusters == 0 {
		n.Clusters = DefaultClusters
	}
	if n.Clusters < 1 || n.Clusters > maxClusters {
		return Spec{}, invalid("clusters", "%d outside 1..%d for the %s topology", n.Clusters, maxClusters, n.Topology)
	}
	if n.Engine == "" {
		n.Engine = DefaultEngine
	}
	engineOK := false
	for _, name := range EngineNames {
		if n.Engine == name {
			engineOK = true
		}
	}
	if !engineOK {
		return Spec{}, invalid("engine", "unknown engine %q (naive or wake-cached)", n.Engine)
	}
	if n.FaultRate < 0 || n.FaultRate > 1 {
		return Spec{}, invalid("fault_rate", "%g outside [0,1] faults per 10k cycles", n.FaultRate)
	}
	if n.FaultSeed < 0 {
		return Spec{}, invalid("fault_seed", "the schedule seed cannot be negative")
	}
	// Validate the kind filter even at rate zero — a typo should fail
	// here, not pass silently until someone turns the rate up.
	if len(n.FaultKinds) > 0 {
		scratch := fault.DefaultConfig(0)
		if err := scratch.EnableOnly(n.FaultKinds); err != nil {
			return Spec{}, &ValidationError{Field: "fault_kinds", Reason: err.Error()}
		}
	}
	if n.FaultRate == 0 {
		// No injector is built: the seed and the kind filter cannot
		// influence the run, so they must not influence the key either.
		n.FaultSeed = 0
		n.FaultKinds = nil
	} else {
		// An empty filter means all kinds; materialize the full sorted
		// list so "all by default" and "all by name" collide.
		kinds := n.FaultKinds
		if len(kinds) == 0 {
			kinds = fault.KindNames()
		}
		set := map[string]bool{}
		for _, k := range kinds {
			set[k] = true
		}
		n.FaultKinds = make([]string, 0, len(set))
		for k := range set {
			n.FaultKinds = append(n.FaultKinds, k)
		}
		sort.Strings(n.FaultKinds)
	}
	return n, nil
}

// Validate reports whether the spec describes a runnable simulation;
// every failure is a *ValidationError naming the field.
func (s Spec) Validate() error {
	_, err := s.Normalized()
	return err
}

// Params converts the spec's workload-level fields into the workload
// API's serializable parameter set. Call on a normalized spec (on a raw
// one the unset defaults map to the zero Params).
func (s Spec) Params() workload.Params {
	p := workload.Params{
		Mode:       modeValues[s.Mode],
		Iterations: s.Iterations,
		Size:       s.Size,
	}
	if s.Prefetch != nil {
		p.Prefetch = *s.Prefetch
	}
	if s.Probe != nil {
		p.Probe = *s.Probe
	}
	return p
}

// canonicalSpec is the fingerprint encoding: every field explicit (no
// omitempty — defaults are materialized, absent and default must
// encode identically) and JSON keys in sorted order. Field order here
// IS the wire order json.Marshal emits, so this struct is part of the
// fingerprint contract pinned by the golden test. Two keys are
// constants, kept because persisted fingerprints — the keys of
// bench/testdata/golden.json among them — hash these bytes: engine is
// always DefaultEngine, since both engine paths produce bit-identical
// results and one simulation must not be cached twice, and par_workers
// (RetiredWorkers) is always zero, since it carried the retired
// parallel engine's worker budget.
type canonicalSpec struct {
	Clusters       int      `json:"clusters"`
	Engine         string   `json:"engine"`
	FaultKinds     []string `json:"fault_kinds"`
	FaultRate      float64  `json:"fault_rate"`
	FaultSeed      int64    `json:"fault_seed"`
	Iterations     int      `json:"iterations"`
	Mode           string   `json:"mode"`
	RetiredWorkers int      `json:"par_workers"`
	Prefetch       bool     `json:"prefetch"`
	Probe          bool     `json:"probe"`
	Size           int      `json:"size"`
	Topology       string   `json:"topology"`
	Workload       string   `json:"workload"`
}

// Canonical returns the spec's canonical bytes: deterministic
// sorted-key JSON of the normalized spec. Semantically identical specs
// return identical bytes; an invalid spec returns the validation error.
func (s Spec) Canonical() ([]byte, error) {
	n, err := s.Normalized()
	if err != nil {
		return nil, err
	}
	kinds := n.FaultKinds
	if kinds == nil {
		kinds = []string{} // encode as [], never null
	}
	return json.Marshal(canonicalSpec{
		Clusters:   n.Clusters,
		Engine:     DefaultEngine,
		FaultKinds: kinds,
		FaultRate:  n.FaultRate,
		FaultSeed:  n.FaultSeed,
		Iterations: n.Iterations,
		Mode:       n.Mode,
		Prefetch:   *n.Prefetch,
		Probe:      *n.Probe,
		Size:       n.Size,
		Topology:   n.Topology,
		Workload:   n.Workload,
	})
}

// Fingerprint returns the hex SHA-256 of the canonical bytes — the
// result-cache key. Identical simulations fingerprint identically;
// distinct ones practically never collide.
func (s Spec) Fingerprint() (string, error) {
	c, err := s.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(c)
	return hex.EncodeToString(sum[:]), nil
}

// Decode reads one job batch from JSON: either a single Spec object or
// an array of Specs. Decoding is strict — an unknown field anywhere in
// the body is a *ValidationError, so client typos (`"iters"` for
// `"iterations"`) fail loudly instead of silently selecting defaults.
func Decode(r io.Reader) ([]Spec, error) {
	body, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	trimmed := bytes.TrimLeft(body, " \t\r\n")
	var specs []Spec
	if len(trimmed) > 0 && trimmed[0] == '[' {
		if err := strictUnmarshal(body, &specs); err != nil {
			return nil, err
		}
	} else {
		var one Spec
		if err := strictUnmarshal(body, &one); err != nil {
			return nil, err
		}
		specs = []Spec{one}
	}
	if len(specs) == 0 {
		return nil, &ValidationError{Field: "jobs", Reason: "empty batch"}
	}
	return specs, nil
}

func strictUnmarshal(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return &ValidationError{Field: "body", Reason: err.Error()}
	}
	// A second document in the body is a client error, not padding.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return &ValidationError{Field: "body", Reason: "trailing data after the job batch"}
	}
	return nil
}
