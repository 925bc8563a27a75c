package workload

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
)

// registry maps workload names to kernels. Kernel packages register
// from init, so any import of the kernel package populates the table;
// the map is never mutated after init in practice, and the accessors
// copy what they expose.
var registry = map[string]Func{}

// Register adds fn under name. An empty or duplicate name panics: two
// kernels claiming one name is a programming error worth failing loudly
// at init time.
func Register(name string, fn Func) {
	if name == "" {
		panic("workload: Register with an empty name")
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("workload: duplicate registration of %q", name))
	}
	registry[name] = fn
}

// Get returns the workload registered under name, or nil.
func Get(name string) Func { return registry[name] }

// Names returns the registered workload names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Run looks up name and runs the workload; an unknown name errors with
// the available names so drivers can surface the registry directly. The
// parameters are not checked here: job.Spec.Normalized rejects negative
// sizes and iteration counts and unknown modes before runner.Execute,
// the one production caller, gets this far.
func Run(name string, m *core.Machine, p Params, att Attachments) (Result, error) {
	fn := Get(name)
	if fn == nil {
		return Result{}, fmt.Errorf("workload: unknown workload %q (available: %s)",
			name, strings.Join(Names(), ", "))
	}
	return fn(m, p, att)
}
