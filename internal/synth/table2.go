package synth

import "slices"

// Table2 returns the 18 benchmark profiles of the paper's Table 2 with
// the published instruction-fetch and total reference counts (in
// millions). The combined workload totals ~1.1 billion references at
// full scale, matching §4.2.
//
// Region structures are chosen per program class:
//
//   - SPECfp92 array codes (alvinn, ear, hydro2d, mdljdp2, mdljsp2,
//     nasa7, su2cor, swm256, wave5): large sequential/strided sweeps
//     over multi-megabyte arrays — capacity-dominated behaviour that a
//     bigger transfer unit and full associativity both help.
//   - SPECint92/utility codes (awk, cexp, compress, sc, sed, tex,
//     uncompress, yacc, ora): smaller working sets with random or
//     skewed (hot/cold) access — conflict- and TLB-sensitive.
//
// Sizes are full-scale; the harness scales them together with the
// memory capacities.
//
// The set is built once and shared: every workload build reads it, so
// callers must not modify the slice or the profiles' region lists.
func Table2() []Profile { return table2 }

var table2 = buildTable2()

func buildTable2() []Profile {
	const (
		kb = 1 << 10
		mb = 1 << 20
	)
	return []Profile{
		{
			Name: "alvinn", Description: "neural net training (fp92)",
			IFetchMillions: 59.0, TotalMillions: 72.8,
			CodeBytes: 48 * kb,
			Regions: []Region{
				{Name: "weights", Size: 1 * mb, Weight: 5, Pattern: Sequential, Elem: 8, StoreFrac: 0.45},
				{Name: "inputs", Size: 256 * kb, Weight: 2, Pattern: Sequential, Elem: 8},
				{Name: "activations", Size: 64 * kb, Weight: 2, Pattern: HotCold, StoreFrac: 0.3},
			},
		},
		{
			Name: "awk", Description: "unix text utility",
			IFetchMillions: 62.8, TotalMillions: 86.4,
			CodeBytes: 128 * kb,
			Regions: []Region{
				{Name: "input", Size: 512 * kb, Weight: 3, Pattern: Sequential, Elem: 1},
				{Name: "symtab", Size: 256 * kb, Weight: 3, Pattern: HotCold, HotProb: 0.9, StoreFrac: 0.2},
				{Name: "fields", Size: 32 * kb, Weight: 2, Pattern: HotCold, StoreFrac: 0.3},
				{Name: "stack", Size: 64 * kb, Weight: 2, Pattern: Stack, StoreFrac: 0.4},
			},
		},
		{
			Name: "cexp", Description: "expression evaluator (int92)",
			IFetchMillions: 28.5, TotalMillions: 37.5,
			CodeBytes: 96 * kb,
			Regions: []Region{
				{Name: "ast", Size: 512 * kb, Weight: 3, Pattern: PointerChase, StoreFrac: 0.15},
				{Name: "symtab", Size: 128 * kb, Weight: 3, Pattern: HotCold, StoreFrac: 0.2},
				{Name: "stack", Size: 64 * kb, Weight: 2, Pattern: Stack, StoreFrac: 0.4},
			},
		},
		{
			Name: "compress", Description: "file compression (int92)",
			IFetchMillions: 8.0, TotalMillions: 10.5,
			CodeBytes: 24 * kb, HotCodeFrac: 0.5, LoopMeanIter: 64,
			Regions: []Region{
				{Name: "input", Size: 512 * kb, Weight: 3, Pattern: Sequential, Elem: 1},
				{Name: "hashtab", Size: 256 * kb, Weight: 4, Pattern: HotCold, HotFrac: 1.0 / 8, HotProb: 0.92, StoreFrac: 0.25},
				{Name: "output", Size: 512 * kb, Weight: 1, Pattern: Sequential, Elem: 1, StoreFrac: 1.0},
			},
		},
		{
			Name: "ear", Description: "human ear simulator (fp92)",
			IFetchMillions: 65.0, TotalMillions: 80.4,
			CodeBytes: 64 * kb,
			Regions: []Region{
				{Name: "signal", Size: 768 * kb, Weight: 4, Pattern: Sequential, Elem: 8, StoreFrac: 0.3},
				{Name: "filters", Size: 256 * kb, Weight: 4, Pattern: Sequential, Elem: 8},
				{Name: "state", Size: 64 * kb, Weight: 1, Pattern: HotCold, StoreFrac: 0.5},
			},
		},
		{
			Name: "sc", Description: "spreadsheet calculator (int92)",
			IFetchMillions: 78.8, TotalMillions: 100.0,
			CodeBytes: 192 * kb,
			Regions: []Region{
				{Name: "cells", Size: 1 * mb, Weight: 4, Pattern: PointerChase, StoreFrac: 0.2},
				{Name: "formulas", Size: 256 * kb, Weight: 3, Pattern: HotCold, StoreFrac: 0.1},
				{Name: "stack", Size: 64 * kb, Weight: 2, Pattern: Stack, StoreFrac: 0.4},
			},
		},
		{
			Name: "hydro2d", Description: "hydrodynamics (fp92)",
			IFetchMillions: 8.2, TotalMillions: 11.0,
			CodeBytes: 64 * kb, LoopMeanIter: 64,
			Regions: []Region{
				{Name: "grid-u", Size: 768 * kb, Weight: 3, Pattern: Sequential, Elem: 8, StoreFrac: 0.3},
				{Name: "grid-v", Size: 768 * kb, Weight: 3, Pattern: Strided, Elem: 8, Stride: 256, StoreFrac: 0.3},
			},
		},
		{
			Name: "mdljdp2", Description: "molecular dynamics, double (fp92)",
			IFetchMillions: 65.0, TotalMillions: 84.2,
			CodeBytes: 48 * kb,
			Regions: []Region{
				{Name: "positions", Size: 768 * kb, Weight: 4, Pattern: Sequential, Elem: 8},
				{Name: "pairs", Size: 256 * kb, Weight: 3, Pattern: HotCold, HotFrac: 1.0 / 8, HotProb: 0.85},
				{Name: "forces", Size: 384 * kb, Weight: 2, Pattern: Sequential, Elem: 8, StoreFrac: 0.6},
			},
		},
		{
			Name: "mdljsp2", Description: "molecular dynamics, single (fp92)",
			IFetchMillions: 65.0, TotalMillions: 77.0,
			CodeBytes: 48 * kb,
			Regions: []Region{
				{Name: "positions", Size: 512 * kb, Weight: 4, Pattern: Sequential, Elem: 4},
				{Name: "pairs", Size: 512 * kb, Weight: 3, Pattern: HotCold, HotFrac: 1.0 / 8, HotProb: 0.92, Elem: 4},
				{Name: "forces", Size: 192 * kb, Weight: 2, Pattern: Sequential, Elem: 4, StoreFrac: 0.6},
			},
		},
		{
			Name: "nasa7", Description: "NASA kernels (fp92)",
			IFetchMillions: 65.0, TotalMillions: 99.7,
			CodeBytes: 96 * kb, LoopMeanIter: 32,
			Regions: []Region{
				{Name: "matrix-a", Size: 768 * kb, Weight: 3, Pattern: Strided, Elem: 8, Stride: 256, StoreFrac: 0.2},
				{Name: "matrix-b", Size: 768 * kb, Weight: 3, Pattern: Sequential, Elem: 8, StoreFrac: 0.2},
				{Name: "work", Size: 256 * kb, Weight: 2, Pattern: Sequential, Elem: 8, StoreFrac: 0.5},
			},
		},
		{
			Name: "ora", Description: "ray tracing (fp92)",
			IFetchMillions: 65.0, TotalMillions: 82.9,
			CodeBytes: 32 * kb, HotCodeFrac: 0.5,
			Regions: []Region{
				// ora famously fits in cache: a small, hot working set.
				{Name: "scene", Size: 96 * kb, Weight: 5, Pattern: HotCold, StoreFrac: 0.1},
				{Name: "stack", Size: 32 * kb, Weight: 3, Pattern: Stack, StoreFrac: 0.4},
			},
		},
		{
			Name: "sed", Description: "unix stream editor",
			IFetchMillions: 7.7, TotalMillions: 9.8,
			CodeBytes: 48 * kb,
			Regions: []Region{
				{Name: "input", Size: 256 * kb, Weight: 4, Pattern: Sequential, Elem: 1},
				{Name: "patterns", Size: 32 * kb, Weight: 3, Pattern: HotCold},
				{Name: "output", Size: 256 * kb, Weight: 1, Pattern: Sequential, Elem: 1, StoreFrac: 1.0},
			},
		},
		{
			Name: "su2cor", Description: "quantum physics (fp92)",
			IFetchMillions: 65.0, TotalMillions: 88.8,
			CodeBytes: 96 * kb,
			Regions: []Region{
				{Name: "lattice", Size: 1 * mb, Weight: 4, Pattern: Strided, Elem: 8, Stride: 256, StoreFrac: 0.25},
				{Name: "propagators", Size: 512 * kb, Weight: 3, Pattern: Sequential, Elem: 8, StoreFrac: 0.3},
			},
		},
		{
			Name: "swm256", Description: "shallow water model (fp92)",
			IFetchMillions: 65.0, TotalMillions: 87.4,
			CodeBytes: 48 * kb, LoopMeanIter: 64,
			Regions: []Region{
				{Name: "fields", Size: 512 * kb, Weight: 6, Pattern: Sequential, Elem: 8, StoreFrac: 0.35},
				{Name: "boundaries", Size: 128 * kb, Weight: 1, Pattern: Strided, Elem: 8, Stride: 256, StoreFrac: 0.3},
			},
		},
		{
			Name: "tex", Description: "text formatter",
			IFetchMillions: 50.3, TotalMillions: 66.8,
			CodeBytes: 256 * kb, HotCodeFrac: 1.0 / 16,
			Regions: []Region{
				{Name: "fonts", Size: 512 * kb, Weight: 3, Pattern: HotCold},
				{Name: "input", Size: 256 * kb, Weight: 2, Pattern: Sequential, Elem: 1},
				{Name: "boxes", Size: 512 * kb, Weight: 3, Pattern: PointerChase, StoreFrac: 0.25},
				{Name: "output", Size: 256 * kb, Weight: 1, Pattern: Sequential, Elem: 1, StoreFrac: 1.0},
			},
		},
		{
			Name: "uncompress", Description: "file decompression (int92)",
			IFetchMillions: 5.7, TotalMillions: 7.5,
			CodeBytes: 24 * kb, HotCodeFrac: 0.5, LoopMeanIter: 64,
			Regions: []Region{
				{Name: "input", Size: 512 * kb, Weight: 2, Pattern: Sequential, Elem: 1},
				{Name: "codetab", Size: 256 * kb, Weight: 4, Pattern: HotCold, HotFrac: 1.0 / 8, HotProb: 0.92, StoreFrac: 0.15},
				{Name: "output", Size: 512 * kb, Weight: 2, Pattern: Sequential, Elem: 1, StoreFrac: 1.0},
			},
		},
		{
			Name: "wave5", Description: "particle-in-cell plasma (fp92)",
			IFetchMillions: 65.0, TotalMillions: 78.3,
			CodeBytes: 96 * kb,
			Regions: []Region{
				{Name: "particles", Size: 1 * mb, Weight: 4, Pattern: Sequential, Elem: 8, StoreFrac: 0.4},
				{Name: "fields", Size: 1 * mb, Weight: 3, Pattern: HotCold, HotFrac: 1.0 / 8, HotProb: 0.92, StoreFrac: 0.2},
			},
		},
		{
			Name: "yacc", Description: "parser generator",
			IFetchMillions: 9.7, TotalMillions: 12.1,
			CodeBytes: 64 * kb,
			Regions: []Region{
				{Name: "tables", Size: 256 * kb, Weight: 4, Pattern: HotCold, StoreFrac: 0.25},
				{Name: "grammar", Size: 128 * kb, Weight: 2, Pattern: PointerChase},
				{Name: "stack", Size: 32 * kb, Weight: 2, Pattern: Stack, StoreFrac: 0.4},
			},
		},
	}
}

// FindProfile returns the Table 2 profile with the given name.
func FindProfile(name string) (Profile, bool) {
	for _, p := range Table2() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// Phased names the phased workload (see PhasedTable2).
const Phased = "phased"

// Workload resolves a workload name to its profile set: "" is the
// Table 2 set, a Table 2 program's name is that program alone, and
// Phased is PhasedTable2. ok is false for any other name.
func Workload(name string) (profiles []Profile, ok bool) {
	switch name {
	case "":
		return Table2(), true
	case Phased:
		return PhasedTable2(), true
	}
	if p, ok := FindProfile(name); ok {
		return []Profile{p}, true
	}
	return nil, false
}

// PhasedTable2 returns the Table 2 profiles with explicit program
// phases: each multi-region program first concentrates on its first
// region, then on the remainder, then mixes — the input/compute/output
// structure real programs have and the situation §6.2's dynamic page
// sizing is motivated by. The profiles are a copy of the shared Table 2
// set, so adding phases leaves that set as it is.
func PhasedTable2() []Profile {
	profiles := slices.Clone(Table2())
	for i, p := range profiles {
		if len(p.Regions) < 2 {
			continue
		}
		first := make([]float64, len(p.Regions))
		rest := make([]float64, len(p.Regions))
		mixed := make([]float64, len(p.Regions))
		for j, r := range p.Regions {
			mixed[j] = r.Weight
			if j == 0 {
				first[j] = r.Weight
			} else {
				rest[j] = r.Weight
			}
		}
		profiles[i].Phases = []Phase{
			{Frac: 1, Weights: first},
			{Frac: 1, Weights: rest},
			{Frac: 1, Weights: mixed},
		}
	}
	return profiles
}

// Table2TotalMillions returns the combined reference count of the full
// workload in millions (~1093, the paper's "1.1 billion").
func Table2TotalMillions() float64 {
	var sum float64
	for _, p := range Table2() {
		sum += p.TotalMillions
	}
	return sum
}
