package kernels

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/job"
	"repro/internal/perfmon"
	"repro/internal/sim"
	"repro/internal/workload"
)

// rank64Input holds the operands of a rank-64 update C += A * B with
// A (n x 64) and B (64 x n), all logically resident in global memory.
type rank64Input struct {
	N int
	// A is stored strip-major: for row strip s and inner column k,
	// A[s*64*32 + k*32 + r] is element (s*32+r, k). This is the layout
	// the hand-coded RK kernel uses so that eight consecutive inner
	// columns of one strip form a contiguous 256-word prefetch block.
	A []float64
	// B is stored row-major: B[k*n + j].
	B []float64
	// C is stored column-major: C[j*n + i].
	C []float64
}

// newRank64Input builds deterministic operands for an n x n update.
// n must be a multiple of the 32-word strip length.
func newRank64Input(n int) *rank64Input {
	if n%StripLen != 0 {
		panic(fmt.Sprintf("kernels: rank-64 size %d not a multiple of %d", n, StripLen))
	}
	in := &rank64Input{
		N: n,
		A: make([]float64, n*64),
		B: make([]float64, 64*n),
		C: make([]float64, n*n),
	}
	r := sim.NewRand(1)
	for i := range in.A {
		in.A[i] = 1 + r.Float64()
	}
	for i := range in.B {
		in.B[i] = 1 - r.Float64()/2
	}
	return in
}

// referenceRank64 computes the update serially for verification.
func referenceRank64(in *rank64Input) []float64 {
	n := in.N
	out := make([]float64, len(in.C))
	copy(out, in.C)
	for j := 0; j < n; j++ {
		for s := 0; s < n/StripLen; s++ {
			for r := 0; r < StripLen; r++ {
				i := s*StripLen + r
				sum := 0.0
				for k := 0; k < 64; k++ {
					sum += in.A[s*64*StripLen+k*StripLen+r] * in.B[k*n+j]
				}
				out[j*n+i] += sum
			}
		}
	}
	return out
}

// runRank64 runs the rank-64 update on m in the given memory mode and
// returns the performance result; in.C is updated in place with the real
// product. Columns of C are partitioned statically over all CEs; each CE
// iterates over the row strips of its columns, processing the 64 inner
// columns of A as register-memory vector operations with two chained
// flops per element ("all versions chain two operations per memory
// request"). In GM/cache mode each CE first transfers the strip's A
// block into a cached cluster work array.
//
// Params.Probe, when true, attaches the paper's performance monitor to
// CE 0's prefetch unit (monitoring all requests of a single processor,
// as the paper does); Params.Mode selects the Table 1 variant.
func runRank64(m *core.Machine, in *rank64Input, p workload.Params) (job.Result, error) {
	mode, probe := p.Mode, p.Probe
	n := in.N
	nces := m.NumCEs()
	if n < nces {
		return job.Result{}, fmt.Errorf("kernels: rank-64 n=%d smaller than %d CEs", n, nces)
	}
	strips := n / StripLen

	// Global address layout (timing view).
	m.AllocGlobalReset()
	aBase := m.AllocGlobal(uint64(n * 64))
	bBase := m.AllocGlobal(uint64(64 * n))
	cBase := m.AllocGlobal(uint64(n * n))

	var pr *perfmon.PrefetchProbe
	if probe && mode != workload.GMNoPrefetch {
		pr = perfmon.AttachPrefetch(m.CE(0).PFU())
	}

	// In GM/cache mode the clusters share one cached work array per
	// cluster for the A strip block; the CEs of a cluster move it
	// cooperatively, one slice each.
	cesPerCluster := m.Config().Cluster.CEs
	clusterWork := make([]uint64, len(m.Clusters))
	if mode == workload.GMCache {
		for ci, cl := range m.Clusters {
			clusterWork[ci] = cl.Alloc(64 * StripLen)
		}
	}
	var aOps [][]*isa.Op
	if mode != workload.GMCache {
		aOps = rank64AOps(mode, aBase, strips)
	}
	for id := 0; id < nces; id++ {
		ce := m.CE(id)
		ci := id / cesPerCluster
		cl := m.Clusters[ci]
		// Balanced column partition; remainders spread over the first CEs.
		j0 := id * n / nces
		j1 := (id + 1) * n / nces
		var bWorkBase uint64
		slice := 64 * StripLen / cesPerCluster
		moveLo := (id % cesPerCluster) * slice
		if mode == workload.GMCache {
			bWorkBase = cl.Alloc(uint64(64 * (j1 - j0)))
		}
		prog := buildRank64Program(in, mode, aBase, bBase, cBase, clusterWork[ci], bWorkBase,
			j0, j1-j0, strips, moveLo, moveLo+slice, aOps)
		ce.SetProgram(prog)
	}

	start := m.Eng.Now()
	end, err := m.RunUntilIdle(sim.Cycle(int64(n) * int64(n) * 2000 / int64(nces)))
	if err != nil {
		return job.Result{}, err
	}
	check := 0.0
	for _, v := range in.C {
		check += v
	}
	res := finish("RK "+mode.String(), m, start, end, check, pr)
	for _, cl := range m.Clusters {
		cl.AllocReset()
	}
	return res, nil
}

// rank64AOps builds, for each row strip, the GM modes' operations on
// A's 64 column strips: 64 register-memory vector loads with 2 chained
// flops per element, in GM/pref consumed from 256-word prefetch blocks
// (8 column strips of A at a time, aggressively overlapped with the
// consuming vector operations). Their addresses depend only on the strip
// and the column within it, and a CE never modifies an operation, so one
// set per job serves every CE and every column of C.
func rank64AOps(mode workload.Mode, aBase uint64, strips int) [][]*isa.Op {
	aStrip := func(strip, k int) isa.Addr {
		return isa.Addr{Space: isa.Global, Word: aBase + uint64(strip*64*StripLen+k*StripLen)}
	}
	ops := make([][]*isa.Op, strips)
	for strip := range ops {
		if mode == workload.GMNoPrefetch {
			for k := 0; k < 64; k++ {
				ops[strip] = append(ops[strip], isa.NewVectorLoad(aStrip(strip, k), StripLen, 1, 2, false))
			}
			continue
		}
		for k := 0; k < 64; k += 8 {
			ops[strip] = append(ops[strip], isa.NewPrefetch(aStrip(strip, k), 8*StripLen, 1))
			for q := 0; q < 8; q++ {
				ops[strip] = append(ops[strip], isa.NewVectorLoad(aStrip(strip, k+q), StripLen, 1, 2, true))
			}
		}
	}
	return ops
}

// buildRank64Program emits one CE's work.
//
// In the GM modes the column loop is outermost so the B column (64 words
// at stride n) is fetched once per column and held in registers across
// the row strips; per strip the code fetches C's strip and runs the
// strip's shared A operations (aOps, see rank64AOps).
//
// In the GM/cache mode the strip loop is outermost: A's 64x32-word strip
// block is transferred into the cluster's shared cached work array
// cooperatively — each CE of the cluster moves the [moveLo, moveHi) word
// slice — as is the CE's slice of B, once at program start; the inner
// vector accesses all hit the cache, and only C's strips still move
// through the networks. The cluster's CEs advance through the same strip
// sequence at the same pace, so no explicit barrier is modeled around
// the cooperative move.
func buildRank64Program(in *rank64Input, mode workload.Mode, aBase, bBase, cBase, workBase, bWorkBase uint64, j0, cols, strips, moveLo, moveHi int, aOps [][]*isa.Op) isa.Program {
	n := in.N
	emitCStrip := func(g *isa.Gen, strip, col int) {
		cStrip := cBase + uint64(col*n+strip*StripLen)
		switch mode {
		case workload.GMNoPrefetch:
			g.Emit(isa.NewVectorLoad(isa.Addr{Space: isa.Global, Word: cStrip}, StripLen, 1, 0, false))
		default:
			g.Emit(
				isa.NewPrefetch(isa.Addr{Space: isa.Global, Word: cStrip}, StripLen, 1),
				isa.NewVectorLoad(isa.Addr{Space: isa.Global, Word: cStrip}, StripLen, 1, 0, true),
			)
		}
	}
	emitCStore := func(g *isa.Gen, strip, col int) {
		cStrip := cBase + uint64(col*n+strip*StripLen)
		st := isa.NewVectorStore(isa.Addr{Space: isa.Global, Word: cStrip}, StripLen, 1, 0)
		st.Do = func() {
			for r := 0; r < StripLen; r++ {
				i := strip*StripLen + r
				sum := 0.0
				for k := 0; k < 64; k++ {
					sum += in.A[strip*64*StripLen+k*StripLen+r] * in.B[k*n+col]
				}
				in.C[col*n+i] += sum
			}
		}
		g.Emit(st)
	}

	if mode == workload.GMCache {
		s := -1
		j := j0 - 1
		stagedB := false
		// The 64 inner vector loads read the same work-array columns for
		// every strip and column, and a CE never modifies an operation,
		// so one set is built and emitted each time.
		workLoads := make([]*isa.Op, 64)
		for k := range workLoads {
			w := workBase + uint64(k*StripLen)
			workLoads[k] = isa.NewVectorLoad(isa.Addr{Space: isa.Cluster, Word: w}, StripLen, 1, 2, false)
		}
		return isa.NewGen(func(g *isa.Gen) bool {
			if !stagedB {
				stagedB = true
				// Stage this CE's B columns into the cluster work array,
				// once: 64 words per owned column, stride n from global.
				for c := 0; c < cols; c++ {
					bCol := bBase + uint64(j0+c)
					g.Emit(
						isa.NewPrefetch(isa.Addr{Space: isa.Global, Word: bCol}, 64, n),
						isa.NewVectorLoad(isa.Addr{Space: isa.Global, Word: bCol}, 64, n, 0, true),
						isa.NewVectorStore(isa.Addr{Space: isa.Cluster, Word: bWorkBase + uint64(c*64)}, 64, 1, 0),
					)
				}
				return true
			}
			if s < 0 || j+1 >= j0+cols {
				s++
				if s >= strips {
					return false
				}
				j = j0
				// Transfer this CE's slice of the A strip block into the
				// cluster's shared work array: prefetched global loads,
				// stored to cluster space (write-allocating the cache).
				blk := aBase + uint64(s*64*StripLen)
				for q := moveLo; q < moveHi; q += 512 {
					chunk := moveHi - q
					if chunk > 512 {
						chunk = 512
					}
					g.Emit(
						isa.NewPrefetch(isa.Addr{Space: isa.Global, Word: blk + uint64(q)}, chunk, 1),
						isa.NewVectorLoad(isa.Addr{Space: isa.Global, Word: blk + uint64(q)}, chunk, 1, 0, true),
						isa.NewVectorStore(isa.Addr{Space: isa.Cluster, Word: workBase + uint64(q)}, chunk, 1, 0),
					)
				}
			} else {
				j++
			}
			strip, col := s, j
			// B values from the cluster work array.
			g.Emit(isa.NewVectorLoad(isa.Addr{Space: isa.Cluster, Word: bWorkBase + uint64((col-j0)*64)}, 64, 1, 0, false))
			emitCStrip(g, strip, col)
			g.Emit(workLoads...)
			emitCStore(g, strip, col)
			return true
		})
	}

	// GM modes: columns outermost.
	j := j0
	s := 0
	needB := true
	return isa.NewGen(func(g *isa.Gen) bool {
		if j >= j0+cols {
			return false
		}
		if needB {
			needB = false
			// B column once per column, held in registers across strips.
			bCol := bBase + uint64(j)
			if mode == workload.GMNoPrefetch {
				g.Emit(isa.NewVectorLoad(isa.Addr{Space: isa.Global, Word: bCol}, 64, n, 0, false))
			} else {
				g.Emit(
					isa.NewPrefetch(isa.Addr{Space: isa.Global, Word: bCol}, 64, n),
					isa.NewVectorLoad(isa.Addr{Space: isa.Global, Word: bCol}, 64, n, 0, true),
				)
			}
		}
		strip, col := s, j
		emitCStrip(g, strip, col)
		g.Emit(aOps[strip]...)
		emitCStore(g, strip, col)
		s++
		if s >= strips {
			s = 0
			j++
			needB = true
		}
		return true
	})
}
