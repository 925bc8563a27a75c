package perfect

import "fmt"

// NewSuite returns the thirteen Perfect Benchmark profiles, calibrated
// against the published Table 3 under the given rates. The structural
// choices per code (effective parallelism, scalar share, I/O volume,
// barriers) come from the paper's per-code discussion; the published
// times are calibration targets from which the solver derives each
// code's serial residual, prefetch-sensitive work and claim volume.
// Rates with a vector rate that is not positive and finite, or a cost
// that is negative or not finite, are an error naming the field.
func NewSuite(r Rates) ([]*Profile, error) {
	if err := r.check(); err != nil {
		return nil, err
	}
	suite := []*Profile{
		{
			// ADM: air-pollution model. Modest vectorization, a large
			// scheduling-sensitive component (11% no-sync slowdown).
			Name: "ADM",
			Targets: Targets{KapSeconds: 689, KapImprovement: 1.2,
				AutoSeconds: 73, AutoImprovement: 10.8,
				NoSyncSeconds: 81, NoPrefSeconds: 83, MFLOPS: 6.9},
			EffParallelism: 16, KapParallelism: 2,
			ScalarShare: 0.40, VectorEfficiency: 0.85,
			LoopInvocations: 2000, ClustersUsed: 4,
		},
		{
			// ARC2D: implicit-CFD code; highly vectorizable (KAP already
			// gets 13.5x), much prefetch-sensitive global vector work
			// (11% no-prefetch slowdown). Hand version eliminates a
			// substantial number of unnecessary computations and
			// aggressively distributes data into cluster memory
			// [BrBo91], reaching 68 s.
			Name: "ARC2D",
			Targets: Targets{KapSeconds: 218, KapImprovement: 13.5,
				AutoSeconds: 141, AutoImprovement: 20.8,
				NoSyncSeconds: 141, NoPrefSeconds: 157, MFLOPS: 13.1},
			EffParallelism: 32, KapParallelism: 8,
			ScalarShare: 0.30, VectorEfficiency: 0.85,
			LoopInvocations: 4000, ClustersUsed: 4,
			Hands: []HandSpec{{
				Name: "hand", TargetSeconds: 68,
				Description:           "eliminate unnecessary computation; distribute data to cluster memories",
				WorkFactor:            0.55,
				MoveGlobalVectorLocal: true,
			}},
		},
		{
			// BDNA: molecular dynamics of DNA; dominated by one
			// formatted-I/O phase that the hand optimization converts
			// to unformatted transfers (111 s -> 70 s).
			Name: "BDNA",
			Targets: Targets{KapSeconds: 502, KapImprovement: 1.9,
				AutoSeconds: 111, AutoImprovement: 8.7,
				NoSyncSeconds: 118, NoPrefSeconds: 122, MFLOPS: 8.2},
			EffParallelism: 24, KapParallelism: 2,
			ScalarShare: 0.20, VectorEfficiency: 0.85,
			LoopInvocations: 2000, ClustersUsed: 4,
			IOFormattedWords: 4.4e6,
			Hands: []HandSpec{{
				Name: "hand", TargetSeconds: 70,
				Description:     "replace formatted with unformatted I/O",
				DropFormattedIO: true,
			}},
		},
		{
			// DYFESM: structural dynamics with a very small problem
			// size: limited parallelism, fine grain (12% no-sync
			// slowdown) and heavy dependence on prefetch (49%
			// no-prefetch slowdown) because few processors carry the
			// global vector fetches. Hand versions reshape data
			// structures and code key kernels in Xylem assembler
			// against the prefetch unit (~40 s), then restructure the
			// algorithm around the SDOALL/CDOALL hierarchy (31 s)
			// [YaGa93].
			Name: "DYFESM",
			Targets: Targets{KapSeconds: 167, KapImprovement: 3.9,
				AutoSeconds: 60, AutoImprovement: 11.0,
				NoSyncSeconds: 67, NoPrefSeconds: 100, MFLOPS: 9.2},
			EffParallelism: 6, KapParallelism: 4,
			ScalarShare: 0.10, VectorEfficiency: 0.85,
			LoopInvocations: 3000, ClustersUsed: 4,
			Hands: []HandSpec{
				{
					Name: "hand-sdoall", TargetSeconds: 31,
					Description:      "algorithm change exploiting the SDOALL/CDOALL control hierarchy",
					SerialFrac:       0.03,
					Parallelism:      12,
					VectorEfficiency: 1.0,
				},
				{
					Name: "hand-pfu", TargetSeconds: 40,
					Description:      "reshaped data structures; key kernels in assembler using the prefetch unit",
					SerialFrac:       0.03,
					VectorEfficiency: 1.0,
				},
			},
		},
		{
			// FL052: transonic-flow Euler solver whose major routines
			// need sequences of multicluster barriers; its hand version
			// introduces redundancy to replace them with one
			// multicluster barrier plus intra-cluster barrier sequences
			// on the concurrency bus, and removes recurrences (33 s)
			// [GJWY93].
			Name: "FL052",
			Targets: Targets{KapSeconds: 100, KapImprovement: 9.0,
				AutoSeconds: 63, AutoImprovement: 14.3,
				NoSyncSeconds: 64, NoPrefSeconds: 79, MFLOPS: 8.7},
			EffParallelism: 10, KapParallelism: 8,
			ScalarShare: 0.10, VectorEfficiency: 0.85,
			LoopInvocations: 2000, Barriers: 100000, ClustersUsed: 4,
			Hands: []HandSpec{{
				Name: "hand", TargetSeconds: 33,
				Description:      "single multicluster barrier + per-cluster barrier sequences; recurrences removed",
				BarrierFactor:    0.2,
				ScalarRateFactor: 2.0,
			}},
		},
		{
			// MDG: molecular dynamics of water; excellent parallel
			// scaling once restructured (22.7x) with a visible
			// scheduling component (11% no-sync slowdown).
			Name: "MDG",
			Targets: Targets{KapSeconds: 3200, KapImprovement: 1.3,
				AutoSeconds: 182, AutoImprovement: 22.7,
				NoSyncSeconds: 202, NoPrefSeconds: 202, MFLOPS: 18.9},
			EffParallelism: 32, KapParallelism: 2,
			ScalarShare: 0.15, VectorEfficiency: 0.85,
			LoopInvocations: 2000, ClustersUsed: 4,
		},
		{
			// MG3D: seismic migration; the largest code, 35.2x after
			// restructuring. The studied version eliminates file I/O
			// (Table 3 footnote), so no I/O is charged here; the
			// eliminated raw volume is recorded informationally for the
			// I/O-kernel model of the pre-elimination program (its
			// 69.6 s of raw transfers against the 348 s of measured
			// compute give the kernel's 5:1 compute-to-I/O ratio).
			Name: "MG3D",
			Targets: Targets{KapSeconds: 7929, KapImprovement: 1.5,
				AutoSeconds: 348, AutoImprovement: 35.2,
				NoSyncSeconds: 346, NoPrefSeconds: 350, MFLOPS: 31.7},
			EffParallelism: 32, KapParallelism: 2,
			ScalarShare: 0.10, VectorEfficiency: 0.85,
			LoopInvocations: 4000, ClustersUsed: 4,
			IOEliminatedRawWords: 1.16e8,
		},
		{
			// OCEAN: 2-D ocean simulation; fine-grained loops make it
			// the most scheduling-sensitive code (18% no-sync slowdown).
			Name: "OCEAN",
			Targets: Targets{KapSeconds: 2158, KapImprovement: 1.4,
				AutoSeconds: 148, AutoImprovement: 19.8,
				NoSyncSeconds: 174, NoPrefSeconds: 187, MFLOPS: 11.2},
			EffParallelism: 28, KapParallelism: 2,
			ScalarShare: 0.10, VectorEfficiency: 0.85,
			LoopInvocations: 4000, ClustersUsed: 4,
		},
		{
			// QCD: lattice gauge theory; dominated by a serial
			// random-number generator (automatable improvement only
			// 1.8). The hand-coded parallel generator lifts it to 20.8x
			// over serial — Table 4's 21 s, an 11.4x improvement over
			// the automatable version.
			Name: "QCD",
			Targets: Targets{KapSeconds: 369, KapImprovement: 1.1,
				AutoSeconds: 239, AutoImprovement: 1.8,
				NoSyncSeconds: 239, NoPrefSeconds: 246, MFLOPS: 1.1},
			EffParallelism: 4, KapParallelism: 1,
			ScalarShare: 0.40, VectorEfficiency: 0.85,
			LoopInvocations: 1000, ClustersUsed: 4,
			Hands: []HandSpec{{
				Name: "hand", TargetSeconds: 21,
				Description: "hand-coded parallel random number generator",
				SerialFrac:  0.03,
				Parallelism: 32,
			}},
		},
		{
			// SPEC77: spectral weather simulation.
			Name: "SPEC77",
			Targets: Targets{KapSeconds: 973, KapImprovement: 2.4,
				AutoSeconds: 156, AutoImprovement: 15.2,
				NoSyncSeconds: 156, NoPrefSeconds: 165, MFLOPS: 11.9},
			EffParallelism: 24, KapParallelism: 4,
			ScalarShare: 0.15, VectorEfficiency: 0.85,
			LoopInvocations: 3000, ClustersUsed: 4,
		},
		{
			// SPICE: circuit simulation; essentially unparallelizable
			// by restructuring (1.02x) — no automatable results. After
			// reconsidering all major phases and developing new
			// approaches where needed, the time drops to ~26 s.
			Name: "SPICE",
			Targets: Targets{KapSeconds: 95.1, KapImprovement: 1.02,
				MFLOPS: 0.5},
			EffParallelism: 8, KapParallelism: 1,
			ScalarShare: 0.60, VectorEfficiency: 0.85,
			LoopInvocations: 500, ClustersUsed: 4,
			Hands: []HandSpec{{
				Name: "hand", TargetSeconds: 26,
				Description: "new algorithmic approaches for all major phases",
				SerialFrac:  0.20,
			}},
		},
		{
			// TRACK: missile tracking; dominated by scalar accesses, so
			// prefetch does not help (0% slowdown without it).
			Name: "TRACK",
			Targets: Targets{KapSeconds: 126, KapImprovement: 1.1,
				AutoSeconds: 26, AutoImprovement: 5.3,
				NoSyncSeconds: 28, NoPrefSeconds: 28, MFLOPS: 3.1},
			EffParallelism: 8, KapParallelism: 1,
			ScalarShare: 0.70, VectorEfficiency: 0.85,
			LoopInvocations: 1000, ClustersUsed: 4,
		},
		{
			// TRFD: two-electron integral transform; 41.1x after
			// restructuring. Hand version 1 rebuilds the kernels around
			// the clusters' caches and vector registers (11.5 s) but
			// spends ~50% of its time in virtual-memory activity — the
			// multicluster TLB-fault pathology [MaEG92, AnGa93]; the
			// distributed-memory version removes the faults (7.5 s).
			Name: "TRFD",
			Targets: Targets{KapSeconds: 273, KapImprovement: 3.2,
				AutoSeconds: 21, AutoImprovement: 41.1,
				NoSyncSeconds: 21, NoPrefSeconds: 21, MFLOPS: 20.5},
			EffParallelism: 32, KapParallelism: 6,
			ScalarShare: 0.20, VectorEfficiency: 0.85,
			LoopInvocations: 500, ClustersUsed: 4,
			Hands: []HandSpec{
				{
					Name: "hand-distributed", TargetSeconds: 7.5,
					Description:           "cache-blocked kernels + distributed-memory version eliminating TLB faults",
					MoveGlobalVectorLocal: true,
					VectorEfficiency:      1.0,
					ScalarRateFactor:      3.0,
					TLBPages:              2600,
					RemoveTLBFaults:       true,
				},
				{
					Name: "hand-shared", TargetSeconds: 11.5,
					Description:           "cache-blocked kernels; ~50% of time in VM activity from 4x TLB faults",
					MoveGlobalVectorLocal: true,
					VectorEfficiency:      1.0,
					ScalarRateFactor:      3.0,
					TLBPages:              2600,
				},
			},
		},
	}
	for _, p := range suite {
		if err := p.Calibrate(r); err != nil {
			return nil, fmt.Errorf("calibrating %s: %w", p.Name, err)
		}
	}
	return suite, nil
}

// Suite is NewSuite with the default rates. Calibration failure (which
// would indicate an inconsistent structural change) is returned, not
// panicked, so embedding tools can surface it as a diagnosable error.
func Suite() ([]*Profile, error) {
	return NewSuite(DefaultRates())
}

// ByName returns the profile with the given name, or nil.
func ByName(suite []*Profile, name string) *Profile {
	for _, p := range suite {
		if p.Name == name {
			return p
		}
	}
	return nil
}
