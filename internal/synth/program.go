package synth

import (
	"fmt"
	"io"
	"math"

	"rampage/internal/mem"
	"rampage/internal/xrand"
)

// Profile describes one synthetic benchmark: its published reference
// mix from Table 2 of the paper, its instruction footprint, and the
// data regions it touches. Profiles are value types; generating from a
// profile never mutates it.
type Profile struct {
	// Name is the Table 2 program name (e.g. "compress").
	Name string
	// Description matches the Table 2 description column.
	Description string
	// IFetchMillions and TotalMillions are the Table 2 columns:
	// instruction fetches and total references, in millions, for the
	// full-scale trace.
	IFetchMillions float64
	TotalMillions  float64
	// CodeBytes is the instruction footprint at full scale.
	CodeBytes uint64
	// HotCodeFrac is the fraction of the code containing the hot loops
	// (defaults to 1/8); LoopMeanIter is the mean loop trip count
	// (defaults to 16); LoopMeanBody is the mean loop body size in
	// bytes (defaults to 128).
	HotCodeFrac  float64
	LoopMeanIter float64
	LoopMeanBody float64
	// Regions are the data regions. Weights are relative.
	Regions []Region
	// Phases optionally divides the run into program phases, each with
	// its own per-region weight vector (real programs move between an
	// input phase, a compute phase, an output phase, ...). Empty means
	// one phase using the Regions' own weights. Phase fractions are
	// normalized over the run.
	Phases []Phase
}

// Phase is one program phase: a fraction of the run during which the
// given per-region weights replace the profiles' defaults. A zero
// weight silences a region for the phase.
type Phase struct {
	// Frac is the phase's share of the run (relative; normalized).
	Frac float64
	// Weights has one entry per profile region.
	Weights []float64
}

// IFetchFrac returns the fraction of references that are instruction
// fetches.
func (p Profile) IFetchFrac() float64 {
	if p.TotalMillions == 0 {
		return 1
	}
	return p.IFetchMillions / p.TotalMillions
}

// Refs returns the number of references a generator with the given
// scale produces.
func (p Profile) Refs(scale float64) uint64 {
	return uint64(p.TotalMillions * 1e6 * scale)
}

// Options configures trace generation from a Profile.
type Options struct {
	// Seed selects the deterministic random stream. The profile name is
	// mixed in, so the same seed may be shared across benchmarks.
	Seed uint64
	// RefScale multiplies the reference count; SizeScale multiplies all
	// footprint sizes (code and data regions). 1.0 is the paper's full
	// scale; the default 0 means 1.0 for both. They are independent so
	// the harness can scale memory capacities and trace lengths by
	// different factors while keeping footprint-to-capacity ratios
	// faithful.
	RefScale  float64
	SizeScale float64
	// Scale, when non-zero, sets both RefScale and SizeScale — a
	// convenience for proportional scaling.
	Scale float64
	// PID tags the generated references (default 0; interleaving
	// retags).
	PID mem.PID
}

// refScale and sizeScale resolve the effective factors.
func (o Options) refScale() float64 {
	if o.Scale != 0 {
		return o.Scale
	}
	if o.RefScale != 0 {
		return o.RefScale
	}
	return 1.0
}

func (o Options) sizeScale() float64 {
	if o.Scale != 0 {
		return o.Scale
	}
	if o.SizeScale != 0 {
		return o.SizeScale
	}
	return 1.0
}

// Virtual address space layout for synthetic programs. The layout is
// shared by all processes — physical tagging in the simulated caches
// plus per-process translation keeps them distinct, exactly as a real
// multiprogrammed system would.
const (
	codeBase    = 0x0040_0000
	dataBase    = 0x1000_0000
	regionAlign = 1 << 22 // regions start on 4MB virtual boundaries
)

// Generator produces a deterministic reference stream for one profile.
// It implements trace.Reader and trace.ColumnReader, and both read
// through one per-reference step.
//
// Every random decision compares a draw's top 53 bits against an
// integer threshold (xrand.Threshold), and the region pick compares
// the same bits against bucket edges (see buildPick). NewGenerator
// only lays the program out; the first read draws the first loop and
// builds the pick, so a generator that is never read costs no draws.
type Generator struct {
	rng   xrand.RNG
	pid   mem.PID
	left  uint64
	total uint64

	// rebuildAt is the emitted-reference count at which the next read
	// must bring the draw state up to date (see advance): 0 before the
	// first read, then the current phase's end.
	rebuildAt uint64
	started   bool

	dataT uint64 // threshold of a data reference

	regions []regionState
	pick    []pickEdge // current region pick, in ascending edge order

	phaseEnds   []uint64    // absolute emitted-reference phase boundaries
	phaseWeight [][]float64 // per-phase weight vectors
	phaseIdx    int

	codeSize  uint64
	pc        uint64 // offset within code
	loopStart uint64
	loopEnd   uint64
	iterLeft  uint64
	hotCode   uint64          // bytes of code holding the hot loops
	body      xrand.Geometric // loop body size, in instructions
	iters     xrand.Geometric // loop trip count
}

// pickEdge is one bucket of the region pick: a draw whose top 53 bits
// are below limit, and at or above the previous edge's limit, picks
// region.
type pickEdge struct {
	limit  uint64
	region *regionState
}

// hotLoopT is the threshold of a new loop starting in the hot code.
var hotLoopT = xrand.Threshold(0.9)

// NewGenerator builds a Generator for profile p. It returns an error
// for degenerate profiles (no references, no regions with positive
// weight when data references are required).
func NewGenerator(p Profile, opts Options) (*Generator, error) {
	refScale, sizeScale := opts.refScale(), opts.sizeScale()
	if refScale < 0 || sizeScale < 0 {
		return nil, fmt.Errorf("synth: negative scale (refs %g, sizes %g)", refScale, sizeScale)
	}
	total := p.Refs(refScale)
	if total == 0 {
		return nil, fmt.Errorf("synth: profile %q yields zero references at scale %g", p.Name, refScale)
	}
	g := &Generator{
		rng:   *xrand.New(opts.Seed ^ hashName(p.Name)),
		pid:   opts.PID,
		left:  total,
		total: total,
		dataT: xrand.Threshold(1 - p.IFetchFrac()),
		body:  xrand.NewGeometric(defaultF(p.LoopMeanBody, 128) / 4),
		iters: xrand.NewGeometric(defaultF(p.LoopMeanIter, 16)),
	}
	g.codeSize = uint64(float64(p.CodeBytes) * sizeScale)
	if g.codeSize < 1024 {
		g.codeSize = 1024
	}
	g.codeSize = mem.AlignUp(g.codeSize, 64)
	g.hotCode = uint64(float64(g.codeSize) * defaultF(p.HotCodeFrac, 1.0/8))
	if g.hotCode < 256 {
		g.hotCode = 256
	}
	if g.hotCode > g.codeSize {
		g.hotCode = g.codeSize
	}

	g.regions = make([]regionState, len(p.Regions))
	base := uint64(dataBase)
	var weightSum float64
	for i, spec := range p.Regions {
		scaled := uint64(float64(spec.Size) * sizeScale)
		g.regions[i] = newRegionState(spec, base, scaled)
		weightSum += spec.Weight
		base = mem.AlignUp(base+g.regions[i].size+regionAlign, regionAlign)
	}
	if g.dataT > 0 && weightSum <= 0 {
		return nil, fmt.Errorf("synth: profile %q needs data regions with positive weight", p.Name)
	}
	if err := g.buildPhases(p, total); err != nil {
		return nil, err
	}
	return g, nil
}

// buildPhases validates the phase schedule.
func (g *Generator) buildPhases(p Profile, total uint64) error {
	if len(p.Phases) == 0 {
		return nil
	}
	var fracSum float64
	for i, ph := range p.Phases {
		if len(ph.Weights) != len(p.Regions) {
			return fmt.Errorf("synth: profile %q phase %d has %d weights for %d regions",
				p.Name, i, len(ph.Weights), len(p.Regions))
		}
		if ph.Frac <= 0 {
			return fmt.Errorf("synth: profile %q phase %d has non-positive fraction", p.Name, i)
		}
		var sum float64
		for _, w := range ph.Weights {
			if w < 0 {
				return fmt.Errorf("synth: profile %q phase %d has a negative weight", p.Name, i)
			}
			sum += w
		}
		if g.dataT > 0 && sum <= 0 {
			return fmt.Errorf("synth: profile %q phase %d silences every region", p.Name, i)
		}
		fracSum += ph.Frac
	}
	var acc float64
	g.phaseEnds = make([]uint64, len(p.Phases))
	g.phaseWeight = make([][]float64, len(p.Phases))
	for i, ph := range p.Phases {
		acc += ph.Frac
		g.phaseEnds[i] = uint64(float64(total) * acc / fracSum)
		g.phaseWeight[i] = ph.Weights
	}
	g.phaseEnds[len(p.Phases)-1] = total // absorb rounding
	return nil
}

// advance brings the draw state up to date for the next reference. The
// first read draws the first loop. The first read and every read at a
// phase boundary move to the phase the emitted count is in, passing
// any empty phase, and rebuild the region pick for its weights.
func (g *Generator) advance() {
	if !g.started {
		g.started = true
		g.pick = make([]pickEdge, 0, len(g.regions))
		g.newLoop()
	}
	emitted := g.total - g.left
	last := len(g.phaseEnds) - 1
	for g.phaseIdx < last && emitted >= g.phaseEnds[g.phaseIdx] {
		g.phaseIdx++
	}
	g.rebuildAt = math.MaxUint64
	if g.phaseIdx < last {
		g.rebuildAt = g.phaseEnds[g.phaseIdx]
	}
	g.buildPick()
}

// weight returns region i's weight in the current phase.
func (g *Generator) weight(i int) float64 {
	if g.phaseWeight == nil {
		return g.regions[i].spec.Weight
	}
	return g.phaseWeight[g.phaseIdx][i]
}

// floatPick is the region pick as a float computation on a draw's top
// 53 bits u: scale u·2⁻⁵³ by the weight sum, subtract each positive
// weight in turn and take the region that drives the remainder
// negative, falling back to the last positive-weight region (the last
// region when none is positive). It defines the pick; buildPick only
// tabulates it.
func (g *Generator) floatPick(u uint64, weightSum float64) int {
	x := float64(u) / float64(1<<53) * weightSum
	last := len(g.regions) - 1
	for i := range g.regions {
		w := g.weight(i)
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
		last = i
	}
	return last
}

// buildPick tabulates floatPick for the current phase as bucket edges.
// Rounding is monotone, so floatPick never decreases as u grows, and
// each bucket's end is found by bisecting floatPick itself, not from
// cumulative weight sums, which round differently.
func (g *Generator) buildPick() {
	var weightSum float64
	for i := range g.regions {
		weightSum += g.weight(i)
	}
	g.pick = g.pick[:0]
	if g.dataT == 0 {
		return // no data references, so nothing is picked
	}
	const end = 1 << 53
	for lo := uint64(0); lo < end; {
		region := g.floatPick(lo, weightSum)
		// floatPick(lo) == region; hi is end or the first u whose pick
		// differs.
		hi := uint64(end)
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			if g.floatPick(mid, weightSum) == region {
				lo = mid
			} else {
				hi = mid
			}
		}
		g.pick = append(g.pick, pickEdge{limit: hi, region: &g.regions[region]})
		lo = hi
	}
}

func defaultF(v, d float64) float64 {
	if v == 0 {
		return d
	}
	return v
}

// hashName mixes a profile name into the seed so equal seeds give
// independent streams per benchmark.
func hashName(name string) uint64 {
	var h uint64 = 0xcbf29ce484222325
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 0x100000001b3
	}
	return h
}

// Remaining returns the number of references still to be generated.
func (g *Generator) Remaining() uint64 { return g.left }

// PID returns the process ID the generator tags its references with.
func (g *Generator) PID() mem.PID { return g.pid }

// Next implements trace.Reader: one step.
func (g *Generator) Next() (mem.Ref, error) {
	if g.left == 0 {
		return mem.Ref{}, io.EOF
	}
	if g.total-g.left >= g.rebuildAt {
		g.advance()
	}
	g.left--
	kind, addr := g.step()
	return mem.Ref{PID: g.pid, Kind: kind, Addr: addr}, nil
}

// ReadColumns implements trace.ColumnReader: the generator loop, one
// step per reference, writing straight into the columns. A batch never
// crosses a phase boundary, so bringing the draw state up to date once
// per batch consumes the random stream exactly as one step per Next
// call does, and both read paths generate the same stream.
func (g *Generator) ReadColumns(kinds []mem.RefKind, addrs []mem.VAddr) (int, error) {
	if g.left == 0 {
		return 0, io.EOF
	}
	if len(kinds) == 0 {
		return 0, nil
	}
	emitted := g.total - g.left
	if emitted >= g.rebuildAt {
		g.advance()
	}
	n := min(uint64(len(kinds)), g.left, g.rebuildAt-emitted)
	kinds, addrs = kinds[:n], addrs[:n]
	for i := range kinds {
		kinds[i], addrs[i] = g.step()
	}
	g.left -= n
	return int(n), nil
}

// step generates one reference: an instruction fetch that advances
// the program counter through the current loop, or a data reference to
// the region the pick's edges select, at an offset its pattern draws.
func (g *Generator) step() (mem.RefKind, mem.VAddr) {
	if !g.rng.Below(g.dataT) {
		addr := mem.VAddr(codeBase + g.pc)
		g.pc += 4
		if g.pc >= g.loopEnd {
			if g.iterLeft > 0 {
				g.iterLeft--
				g.pc = g.loopStart
			} else {
				g.newLoop()
			}
		}
		return mem.IFetch, addr
	}
	rs := g.pickAt(g.rng.Next() >> 11)
	off := rs.nextOffset(&g.rng)
	kind := mem.Load
	if g.rng.Below(rs.storeT) {
		kind = mem.Store
	}
	return kind, mem.VAddr(rs.base + off)
}

// pickAt returns the region a draw's top 53 bits u pick: the bucket
// is the count of edges at or below u, and the last edge, 2^53, is
// above every u.
func (g *Generator) pickAt(u uint64) *regionState {
	i := 0
	for _, e := range g.pick[:len(g.pick)-1] {
		if u >= e.limit {
			i++
		}
	}
	return g.pick[i].region
}

// newLoop picks the next loop: usually within the hot fraction of the
// code, occasionally anywhere (a call into colder code).
func (g *Generator) newLoop() {
	var start uint64
	if g.rng.Below(hotLoopT) {
		start = g.rng.Uintn(g.hotCode/4) * 4
	} else {
		start = g.rng.Uintn(g.codeSize/4) * 4
	}
	body := 32 + g.body.Draw(&g.rng)*4
	if start+body > g.codeSize {
		start = g.codeSize - body
		if start > g.codeSize { // underflow: body larger than code
			start = 0
			body = g.codeSize
		}
	}
	g.loopStart = start
	g.loopEnd = start + body
	g.pc = start
	g.iterLeft = g.iters.Draw(&g.rng)
}
