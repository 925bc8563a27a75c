package workload

import (
	"strings"
	"testing"

	"repro/internal/core"
)

// TestRegisterRejectsBadNames: an empty name and a second registration
// under a taken name both panic, naming the problem, and the failed
// duplicate leaves the first registration in place.
func TestRegisterRejectsBadNames(t *testing.T) {
	first := func(*core.Machine, Params, Attachments) (Result, error) { return Result{Name: "first"}, nil }
	second := func(*core.Machine, Params, Attachments) (Result, error) { return Result{Name: "second"}, nil }
	mustPanic := func(want string, register func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("no panic, want one mentioning %q", want)
			}
			if msg, _ := r.(string); !strings.Contains(msg, want) {
				t.Fatalf("panic %v, want one mentioning %q", r, want)
			}
		}()
		register()
	}

	mustPanic("empty name", func() { Register("", first) })
	Register("registry-test", first)
	mustPanic(`duplicate registration of "registry-test"`, func() { Register("registry-test", second) })
	if r, err := Get("registry-test")(nil, Params{}, Attachments{}); err != nil || r.Name != "first" {
		t.Fatalf("after the refused duplicate the registry runs %q (err %v), want first", r.Name, err)
	}
}
