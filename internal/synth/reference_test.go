package synth

import (
	"errors"
	"fmt"
	"io"
	"math"
	"testing"

	"rampage/internal/mem"
	"rampage/internal/trace"
	"rampage/internal/xrand"
)

// This file freezes the float generator that Generator's integer-
// threshold step replaced, as the reference every read path is
// compared against. Its draws are copied unchanged: Float, Chance and
// Geometric from xrand, and Next, newLoop, nextData, pickRegion and
// regionState.nextOffset from the generator. Only the layout (code
// size, region placement, the phase schedule and the seed) is taken
// from NewGenerator, which lays a program out without drawing.

// refRNG is xrand.RNG with the float draws as they were.
type refRNG struct{ xrand.RNG }

func (r *refRNG) Float() float64 { return float64(r.Next()>>11) / float64(1<<53) }

func (r *refRNG) Chance(p float64) bool { return r.Float() < p }

func (r *refRNG) Geometric(mean float64) uint64 {
	if mean <= 1 {
		return 1
	}
	n := uint64(1)
	p := 1 / mean
	for !r.Chance(p) && n < uint64(mean*64) {
		n++
	}
	return n
}

// refRegion is a region's cursor state, as regionState was.
type refRegion struct {
	spec   Region
	base   uint64
	size   uint64
	elem   uint64
	stride uint64
	cursor uint64
	depth  uint64
}

// refGenerator is the float generator.
type refGenerator struct {
	pid      mem.PID
	rng      refRNG
	left     uint64
	dataFrac float64

	regions   []*refRegion
	weightSum float64
	weights   []float64

	total       uint64
	phaseEnds   []uint64
	phaseWeight [][]float64
	phaseIdx    int

	codeSize  uint64
	pc        uint64
	loopStart uint64
	loopEnd   uint64
	iterLeft  uint64

	hotCodeFrac  float64
	loopMeanIter float64
	loopMeanBody float64
}

// newRefGenerator builds the reference for p and opts, which must be
// valid.
func newRefGenerator(t testing.TB, p Profile, opts Options) *refGenerator {
	t.Helper()
	g, err := NewGenerator(p, opts)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	r := &refGenerator{
		pid:          opts.PID,
		left:         g.total,
		total:        g.total,
		dataFrac:     1 - p.IFetchFrac(),
		phaseEnds:    g.phaseEnds,
		phaseWeight:  g.phaseWeight,
		codeSize:     g.codeSize,
		hotCodeFrac:  defaultF(p.HotCodeFrac, 1.0/8),
		loopMeanIter: defaultF(p.LoopMeanIter, 16),
		loopMeanBody: defaultF(p.LoopMeanBody, 128),
	}
	r.rng.SetState(g.rng.State())
	for _, rs := range g.regions {
		r.regions = append(r.regions, &refRegion{spec: rs.spec, base: rs.base, size: rs.size, elem: rs.elem, stride: rs.stride})
		r.weights = append(r.weights, rs.spec.Weight)
		r.weightSum += rs.spec.Weight
	}
	if r.phaseEnds != nil {
		r.setPhase(0)
	}
	r.newLoop()
	return r
}

func (g *refGenerator) setPhase(i int) {
	g.phaseIdx = i
	g.weights = g.phaseWeight[i]
	g.weightSum = 0
	for _, w := range g.weights {
		g.weightSum += w
	}
}

func (g *refGenerator) advancePhase() {
	if g.phaseEnds == nil {
		return
	}
	emitted := g.total - g.left
	for g.phaseIdx < len(g.phaseEnds)-1 && emitted >= g.phaseEnds[g.phaseIdx] {
		g.setPhase(g.phaseIdx + 1)
	}
}

func (g *refGenerator) Next() (mem.Ref, error) {
	if g.left == 0 {
		return mem.Ref{}, io.EOF
	}
	g.advancePhase()
	g.left--
	if g.rng.Chance(g.dataFrac) {
		return g.nextData(), nil
	}
	return g.nextIFetch(), nil
}

func (g *refGenerator) nextIFetch() mem.Ref {
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
	return mem.Ref{PID: g.pid, Kind: mem.IFetch, Addr: addr}
}

func (g *refGenerator) newLoop() {
	hot := uint64(float64(g.codeSize) * g.hotCodeFrac)
	if hot < 256 {
		hot = 256
	}
	if hot > g.codeSize {
		hot = g.codeSize
	}
	var start uint64
	if g.rng.Chance(0.9) {
		start = g.rng.Uintn(hot/4) * 4
	} else {
		start = g.rng.Uintn(g.codeSize/4) * 4
	}
	body := 32 + g.rng.Geometric(g.loopMeanBody/4)*4
	if start+body > g.codeSize {
		start = g.codeSize - body
		if start > g.codeSize {
			start = 0
			body = g.codeSize
		}
	}
	g.loopStart = start
	g.loopEnd = start + body
	g.pc = start
	g.iterLeft = g.rng.Geometric(g.loopMeanIter)
}

func (g *refGenerator) nextData() mem.Ref {
	rs := g.pickRegion()
	off := rs.nextOffset(&g.rng)
	kind := mem.Load
	if g.rng.Chance(rs.spec.StoreFrac) {
		kind = mem.Store
	}
	return mem.Ref{PID: g.pid, Kind: kind, Addr: mem.VAddr(rs.base + off)}
}

func (g *refGenerator) pickRegion() *refRegion {
	x := g.rng.Float() * g.weightSum
	last := g.regions[len(g.regions)-1]
	for i, rs := range g.regions {
		w := g.weights[i]
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return rs
		}
		last = rs
	}
	return last
}

func (rs *refRegion) nextOffset(r *refRNG) uint64 {
	n := rs.size / rs.elem
	switch rs.spec.Pattern {
	case Sequential:
		off := rs.cursor
		rs.cursor += rs.elem
		if rs.cursor >= rs.size {
			rs.cursor = 0
		}
		return off
	case Strided:
		off := rs.cursor
		rs.cursor += rs.stride
		if rs.cursor >= rs.size {
			rs.cursor = (rs.cursor + rs.elem) % rs.stride
		}
		return off
	case Random:
		return r.Uintn(n) * rs.elem
	case HotCold:
		hotFrac := rs.spec.HotFrac
		if hotFrac == 0 {
			hotFrac = 1.0 / 16
		}
		hotProb := rs.spec.HotProb
		if hotProb == 0 {
			hotProb = 0.93
		}
		hotElems := uint64(float64(n) * hotFrac)
		if hotElems == 0 {
			hotElems = 1
		}
		if r.Chance(hotProb) {
			return r.Uintn(hotElems) * rs.elem
		}
		return r.Uintn(n) * rs.elem
	case PointerChase:
		cur := rs.cursor / rs.elem
		h := xrand.Mix(cur*0x9E3779B97F4A7C15 + 0x1234567)
		var next uint64
		if h%8 != 0 && n > 64 {
			next = (cur &^ 63) + (h>>16)%64
			if next >= n {
				next = h % n
			}
		} else {
			next = (h >> 16) % n
		}
		rs.cursor = next * rs.elem
		return cur * rs.elem
	case Stack:
		frame := rs.elem * 8
		if r.Chance(0.5) && rs.depth+frame < rs.size {
			rs.depth += frame
		} else if rs.depth >= frame {
			rs.depth -= frame
		}
		off := rs.depth + r.Uintn(8)*rs.elem
		if off >= rs.size {
			off = rs.size - rs.elem
		}
		return off
	default:
		return 0
	}
}

// pickAt is pickRegion's float pick on a given draw's top 53 bits u,
// returning the region's index.
func (g *refGenerator) pickAt(u uint64) int {
	x := float64(u) / float64(1<<53) * g.weightSum
	last := len(g.regions) - 1
	for i := range g.regions {
		w := g.weights[i]
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

// TestPickMatchesFloat checks the region pick where a stream almost
// never draws: at both ends of every bucket, in every phase, the pick
// agrees with the float pick. The float pick never decreases as the
// draw grows, so agreeing at the ends is agreeing everywhere. The
// weights include fractional ones, whose cumulative sums round
// differently from the chained subtraction.
func TestPickMatchesFloat(t *testing.T) {
	profiles, _ := Workload(Phased)
	profiles = append(profiles, Table2()...)
	for _, ws := range [][]float64{
		{0.1, 0.2, 0.7}, {0.3, 0.3, 0.3, 0.1}, {1.0 / 3, 1.0 / 3, 1.0 / 3},
		{1e-300, 1, 1e300}, {0, 2.75, 0, 1.25}, {5, 0, 0}, {math.MaxFloat64, math.MaxFloat64},
	} {
		p := Profile{Name: "weights", TotalMillions: 1, IFetchMillions: 0.5}
		for _, w := range ws {
			p.Regions = append(p.Regions, Region{Size: 4096, Weight: w})
		}
		profiles = append(profiles, p)
	}
	for _, p := range profiles {
		opts := Options{Seed: 1, Scale: 0.001}
		g, err := NewGenerator(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Next(); err != nil {
			t.Fatal(err)
		}
		ref := newRefGenerator(t, p, opts)
		for phase := 0; phase < max(1, len(p.Phases)); phase++ {
			if p.Phases != nil {
				g.phaseIdx = phase
				g.buildPick()
				ref.setPhase(phase)
			}
			lo := uint64(0)
			for _, e := range g.pick {
				for _, u := range []uint64{lo, e.limit - 1} {
					if want := ref.pickAt(u); g.pickAt(u) != &g.regions[want] {
						t.Errorf("%s phase %d: draw %d picks another region than the float pick's %d", p.Name, phase, u, want)
					}
				}
				lo = e.limit
			}
			if lo != 1<<53 {
				t.Errorf("%s phase %d: the edges end at %d, not 2^53", p.Name, phase, lo)
			}
		}
	}
}

// matchReference drives three generators built from p and opts — the
// column loop in windows of at most window references, the column loop
// in cycling odd sizes, and Next — and fails unless each delivers exactly
// the reference's stream and then reports the end of it. When capture
// is set, a fourth generator is captured with trace.CaptureColumnar and
// compared too.
func matchReference(t *testing.T, p Profile, opts Options, window int, capture bool) {
	t.Helper()
	ref := newRefGenerator(t, p, opts)
	mk := func() *Generator {
		g, err := NewGenerator(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	cols, odd, next := mk(), mk(), mk()
	var captured *trace.ColumnarBuffer
	if capture {
		var err error
		if captured, err = trace.CaptureColumnar(mk(), 0); err != nil {
			t.Fatalf("capture: %v", err)
		}
	}
	const chunk = 4096
	want := make([]mem.Ref, chunk)
	kinds, addrs := make([]mem.RefKind, chunk), make([]mem.VAddr, chunk)
	oddKinds, oddAddrs := make([]mem.RefKind, chunk), make([]mem.VAddr, chunk)
	size := 1
	for at := 0; ; {
		n := 0
		for ; n < chunk; n++ {
			r, err := ref.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			want[n] = r
		}
		for got := 0; got < n; {
			end := min(n, got+window)
			k, err := cols.ReadColumns(kinds[got:end], addrs[got:end])
			if err != nil || k == 0 {
				t.Fatalf("%s: ReadColumns at ref %d = %d, %v", p.Name, at+got, k, err)
			}
			got += k
		}
		for got := 0; got < n; {
			end := min(n, got+size)
			k, err := odd.ReadColumns(oddKinds[got:end], oddAddrs[got:end])
			if err != nil || k == 0 {
				t.Fatalf("%s: odd-sized ReadColumns at ref %d = %d, %v", p.Name, at+got, k, err)
			}
			got += k
			if size += 2; size > 511 {
				size = 1
			}
		}
		for i, w := range want[:n] {
			if got := (mem.Ref{PID: cols.PID(), Kind: kinds[i], Addr: addrs[i]}); got != w {
				t.Fatalf("%s ref %d: column loop %+v, reference %+v", p.Name, at+i, got, w)
			}
			if got := (mem.Ref{PID: odd.PID(), Kind: oddKinds[i], Addr: oddAddrs[i]}); got != w {
				t.Fatalf("%s ref %d: odd-sized column loop %+v, reference %+v", p.Name, at+i, got, w)
			}
			if got, err := next.Next(); err != nil || got != w {
				t.Fatalf("%s ref %d: Next %+v, %v, reference %+v", p.Name, at+i, got, err, w)
			}
			if captured != nil && (at+i >= captured.Len() || captured.Ref(at+i) != w) {
				t.Fatalf("%s ref %d: capture of %d refs diverges from reference %+v", p.Name, at+i, captured.Len(), w)
			}
		}
		at += n
		if n < chunk {
			if captured != nil && captured.Len() != at {
				t.Fatalf("%s: captured %d refs, reference has %d", p.Name, captured.Len(), at)
			}
			break
		}
	}
	for name, g := range map[string]*Generator{"column loop": cols, "odd-sized column loop": odd, "Next": next} {
		if g.Remaining() != 0 {
			t.Fatalf("%s: %s has %d refs left after the reference ended", p.Name, name, g.Remaining())
		}
		if _, err := g.Next(); !errors.Is(err, io.EOF) {
			t.Fatalf("%s: %s Next after the end = %v", p.Name, name, err)
		}
		if k, err := g.ReadColumns(kinds, addrs); k != 0 || !errors.Is(err, io.EOF) {
			t.Fatalf("%s: %s ReadColumns after the end = %d, %v", p.Name, name, k, err)
		}
	}
}

// TestGeneratorMatchesReference drives every Table 2 program and the
// phased set through the column loop, in two batch patterns, and Next,
// and requires the reference's stream from each: at the quick scale
// (1/1000 of the references, 1/16 of the sizes) for three seeds, and at
// the default scale (1/48, 1/8) for seed 42.
func TestGeneratorMatchesReference(t *testing.T) {
	type scale struct {
		name      string
		refs, mem float64
		seeds     []uint64
	}
	for _, sc := range []scale{
		{"quick", 1.0 / 1000, 1.0 / 16, []uint64{42, 7, 1 << 20}},
		{"default", 1.0 / 48, 1.0 / 8, []uint64{42}},
	} {
		for _, seed := range sc.seeds {
			for _, workload := range []string{"", Phased} {
				name := workload
				if name == "" {
					name = "table2"
				}
				t.Run(fmt.Sprintf("%s/%s/%d", sc.name, name, seed), func(t *testing.T) {
					t.Parallel()
					profiles, _ := Workload(workload)
					for _, p := range profiles {
						matchReference(t, p, Options{Seed: seed, RefScale: sc.refs, SizeScale: sc.mem}, 4096, false)
					}
				})
			}
		}
	}
}

// FuzzGeneratorColumns fuzzes seeds and profiles against the
// reference: one to five regions of every pattern (and one past the
// last), zero, fractional and very large weights, optional phases, and
// StoreFrac, HotProb and HotFrac at 0, subnormal, 0.5, 1 and above 1.
// The column loop reads in fuzzed windows, and a capture is compared
// too.
func FuzzGeneratorColumns(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7}, uint16(5000), uint16(64))
	f.Add(uint64(42), []byte{4, 0x15, 0x3f, 0x2a, 0x7, 0x90, 0xff, 0x31, 0x2, 0x77, 0x12, 0x81, 0x5c}, uint16(20000), uint16(1))
	f.Add(uint64(7), []byte{0x23, 0x14, 0x45, 0x96, 0x37, 0x58, 0x69, 0x7a, 0x8b, 0x9c, 0xad, 0xbe, 0xcf, 0xd0, 0xe1, 0xf2}, uint16(3000), uint16(4095))
	f.Add(uint64(0xdead), []byte{0xfe, 0xfe, 0x01, 0xfd, 0xfc, 0xfb, 0xfa, 0xf9, 0xf8, 0xf7, 0xf6, 0xf5, 0xf4, 0xf3, 0xf2, 0xf1, 0xf0, 0xef, 0xee, 0xed, 0xec, 0xeb, 0xea}, uint16(777), uint16(100))
	f.Fuzz(func(t *testing.T, seed uint64, shape []byte, refs, window uint16) {
		p, ok := fuzzProfile(shape, uint64(refs)%20000+1)
		if !ok {
			t.Skip("the shape names a profile NewGenerator refuses")
		}
		matchReference(t, p, Options{Seed: seed, SizeScale: 1.0 / 64, PID: 3}, int(window)%4096+1, true)
	})
}

// fuzzProfile decodes a fuzzed shape into a profile of about refs
// references; ok is false when NewGenerator refuses it.
func fuzzProfile(shape []byte, refs uint64) (Profile, bool) {
	at := 0
	next := func() byte { // cycles through the shape, zero when empty
		if len(shape) == 0 {
			return 0
		}
		b := shape[at%len(shape)]
		at++
		return b
	}
	weights := []float64{0, 0.5, 1, 3, 2.75, 1e-300, 1e300, math.MaxFloat64}
	fracs := []float64{0, math.SmallestNonzeroFloat64, 0.5, 1, 1.5, 0.3, 0.93, 1e-9}
	elems := []uint64{0, 1, 4, 8, 64}
	strides := []uint64{0, 8, 24, 1 << 10}
	sizes := []uint64{0, 64, 4 << 10, 1 << 20, 8 << 20}
	ifetch := []float64{0, 0.3, 0.75, 0.95, 1}
	means := []float64{0, 0.5, 1, 2, 16, 100}
	p := Profile{
		Name:          "fuzz",
		TotalMillions: float64(refs) / 1e6,
		CodeBytes:     uint64(next()) << 10,
		HotCodeFrac:   fracs[next()%8],
		LoopMeanIter:  means[next()%6],
		LoopMeanBody:  means[next()%6] * 8,
	}
	p.IFetchMillions = p.TotalMillions * ifetch[next()%5]
	regions := 1 + int(next()%5)
	for i := 0; i < regions; i++ {
		p.Regions = append(p.Regions, Region{
			Size:      sizes[next()%5],
			Weight:    weights[next()%8],
			Pattern:   Pattern(next() % 7),
			Stride:    strides[next()%4],
			Elem:      elems[next()%5],
			StoreFrac: fracs[next()%8],
			HotFrac:   fracs[next()%8],
			HotProb:   fracs[next()%8],
		})
	}
	for phases := int(next() % 4); len(p.Phases) < phases; {
		ph := Phase{Frac: []float64{0.1, 1, 2.5, 1e-6}[next()%4]}
		for range p.Regions {
			ph.Weights = append(ph.Weights, weights[next()%8])
		}
		p.Phases = append(p.Phases, ph)
	}
	_, err := NewGenerator(p, Options{SizeScale: 1.0 / 64})
	return p, err == nil
}
