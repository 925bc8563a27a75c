package kernels

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/cedarfort"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/workload"
)

// sameOp reports whether two operations hold the same fields: the same
// values, mask contents and callbacks.
func sameOp(a, b *isa.Op) bool {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		if fa.Kind() == reflect.Func {
			if fa.Pointer() != fb.Pointer() {
				return false
			}
		} else if !reflect.DeepEqual(fa.Interface(), fb.Interface()) {
			return false
		}
	}
	return true
}

// serialMG3D is the mg3d workload's result computed serially: each step
// adds the traces, weighted by 1/(step+1), to the image.
func serialMG3D(n, steps int) float64 {
	r := sim.NewRand(11)
	cur, aux := make([]float64, n), make([]float64, n)
	for i := range cur {
		cur[i] = r.Float64()
	}
	for i := range aux {
		aux[i] = r.Float64() - 0.5
	}
	for step := 0; step < steps; step++ {
		nxt := make([]float64, n)
		for i := range nxt {
			nxt[i] = cur[i] + aux[i]/float64(step+1)
		}
		cur = nxt
	}
	sum := 0.0
	for _, v := range cur {
		sum += v
	}
	return sum
}

// TestSharedOpsUnmodified: cg and the I/O kernels build each CE's
// operation lists once and re-emit them every iteration or step, which
// is sound only because a CE never modifies an operation. A 3-iteration
// cg and a 3-step mg3d snapshot their lists before the run, and every
// operation must read the same after it. mg3d's result must also match
// its serial reference: its re-emitted stores read the running step.
func TestSharedOpsUnmodified(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"cg", func() error {
			m := testMachine(1)
			_, err := runCG(m, cedarfort.New(m, cedarfort.DefaultConfig()), newCGProblem(8*StripLen*4, 64),
				workload.Params{Iterations: 3, Prefetch: true})
			return err
		}},
		{"mg3d", func() error {
			m := testMachine(2)
			res, err := runMG3D(m, workload.Params{Iterations: 3, Prefetch: true}, workload.Attachments{})
			if want := serialMG3D(m.NumCEs()*StripLen*2, 3); err == nil && res.Check != want {
				t.Errorf("mg3d check %v, serial reference %v", res.Check, want)
			}
			return err
		}},
	} {
		var lists [][]*isa.Op
		var before [][]isa.Op
		testHookOps = func(ls [][]*isa.Op) {
			for _, ops := range ls {
				snap := make([]isa.Op, len(ops))
				for i, op := range ops {
					snap[i] = *op
					snap[i].PFMask = slices.Clone(op.PFMask)
				}
				lists, before = append(lists, ops), append(before, snap)
			}
		}
		err := tc.run()
		testHookOps = nil
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(lists) == 0 {
			t.Fatalf("%s: no shared operation lists were built", tc.name)
		}
		for l, ops := range lists {
			for i, op := range ops {
				if !sameOp(op, &before[l][i]) {
					t.Fatalf("%s: list %d operation %d changed during the run:\nbefore %+v\nafter  %+v", tc.name, l, i, before[l][i], *op)
				}
			}
		}
	}
}
