package synth

import (
	"io"
	"math"
	"testing"
	"testing/quick"

	"rampage/internal/mem"
	"rampage/internal/trace"
	"rampage/internal/xrand"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := xrand.New(42), xrand.New(42)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
	c := xrand.New(43)
	same := 0
	a = xrand.New(42)
	for i := 0; i < 1000; i++ {
		if a.Next() == c.Next() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds collided %d/1000 times", same)
	}
}

func TestRNGUintnRange(t *testing.T) {
	r := xrand.New(7)
	f := func(n uint16) bool {
		bound := uint64(n)%1000 + 1
		v := r.Uintn(bound)
		return v < bound
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGFloatRange(t *testing.T) {
	r := xrand.New(9)
	for i := 0; i < 10000; i++ {
		v := r.Float()
		if v < 0 || v >= 1 {
			t.Fatalf("float() = %g out of [0,1)", v)
		}
	}
}

func TestRNGUniformity(t *testing.T) {
	r := xrand.New(11)
	const buckets, n = 10, 100000
	var counts [buckets]int
	for i := 0; i < n; i++ {
		counts[r.Uintn(buckets)]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)-n/buckets) > n/buckets*0.1 {
			t.Errorf("bucket %d has %d hits, want ~%d", i, c, n/buckets)
		}
	}
}

func TestRNGGeometricMean(t *testing.T) {
	r := xrand.New(13)
	const n = 50000
	var sum uint64
	d := xrand.NewGeometric(16)
	for i := 0; i < n; i++ {
		sum += d.Draw(r)
	}
	mean := float64(sum) / n
	if mean < 12 || mean > 20 {
		t.Errorf("geometric(16) sample mean = %.2f, want ~16", mean)
	}
}

func TestPatternString(t *testing.T) {
	for p, want := range map[Pattern]string{
		Sequential: "sequential", Strided: "strided", Random: "random",
		HotCold: "hotcold", PointerChase: "chase", Stack: "stack",
		Pattern(99): "Pattern(99)",
	} {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", p, got, want)
		}
	}
}

func TestRegionOffsetsInBounds(t *testing.T) {
	r := xrand.New(1)
	for _, pat := range []Pattern{Sequential, Strided, Random, HotCold, PointerChase, Stack} {
		spec := Region{Name: "r", Size: 64 << 10, Pattern: pat, Stride: 1 << 10}
		rs := newRegionState(spec, 0x1000_0000, spec.Size)
		for i := 0; i < 10000; i++ {
			off := rs.nextOffset(r)
			if off >= rs.size {
				t.Fatalf("%s: offset %d out of region of size %d", pat, off, rs.size)
			}
		}
	}
}

func TestSequentialPatternAdvances(t *testing.T) {
	rs := newRegionState(Region{Size: 1024, Pattern: Sequential, Elem: 8}, 0, 1024)
	r := xrand.New(1)
	prev := rs.nextOffset(r)
	for i := 0; i < 100; i++ {
		off := rs.nextOffset(r)
		want := (prev + 8) % 1024
		if off != want {
			t.Fatalf("sequential offset %d, want %d", off, want)
		}
		prev = off
	}
}

func TestPointerChaseDeterministicSuccessor(t *testing.T) {
	// The same element must always be followed by the same successor.
	mk := func() *regionState {
		rs := newRegionState(Region{Size: 4096, Pattern: PointerChase}, 0, 4096)
		return &rs
	}
	a, b := mk(), mk()
	r1, r2 := xrand.New(1), xrand.New(2) // rng is unused by chase, but differ anyway
	for i := 0; i < 1000; i++ {
		if a.nextOffset(r1) != b.nextOffset(r2) {
			t.Fatal("pointer chase depends on RNG; successors must be stable")
		}
	}
}

func TestNewGeneratorErrors(t *testing.T) {
	if _, err := NewGenerator(Profile{Name: "empty"}, Options{}); err == nil {
		t.Error("zero-reference profile accepted")
	}
	p := Profile{Name: "nodata", TotalMillions: 1, IFetchMillions: 0.5}
	if _, err := NewGenerator(p, Options{Scale: 0.001}); err == nil {
		t.Error("data-referencing profile with no regions accepted")
	}
	p2 := Profile{Name: "x", TotalMillions: 1, IFetchMillions: 1}
	if _, err := NewGenerator(p2, Options{Scale: -1}); err == nil {
		t.Error("negative scale accepted")
	}
}

func TestGeneratorRefCount(t *testing.T) {
	p, ok := FindProfile("compress")
	if !ok {
		t.Fatal("compress profile missing")
	}
	g, err := NewGenerator(p, Options{Seed: 1, Scale: 0.001})
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	want := p.Refs(0.001)
	var n uint64
	for {
		_, err := g.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		n++
	}
	if n != want {
		t.Errorf("generated %d refs, want %d", n, want)
	}
	if g.Remaining() != 0 {
		t.Errorf("Remaining = %d after exhaustion", g.Remaining())
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	p, _ := FindProfile("awk")
	mk := func() []mem.Ref {
		g, err := NewGenerator(p, Options{Seed: 99, Scale: 0.0005})
		if err != nil {
			t.Fatalf("NewGenerator: %v", err)
		}
		refs, err := trace.Drain(g)
		if err != nil {
			t.Fatalf("Drain: %v", err)
		}
		return refs
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ref %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestGeneratorSeedsDiffer(t *testing.T) {
	p, _ := FindProfile("awk")
	g1, _ := NewGenerator(p, Options{Seed: 1, Scale: 0.0002})
	g2, _ := NewGenerator(p, Options{Seed: 2, Scale: 0.0002})
	a, _ := trace.Drain(g1)
	b, _ := trace.Drain(g2)
	same := 0
	for i := range a {
		if i < len(b) && a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical traces")
	}
}

func TestGeneratorIFetchFraction(t *testing.T) {
	for _, name := range []string{"alvinn", "compress", "tex"} {
		p, _ := FindProfile(name)
		g, err := NewGenerator(p, Options{Seed: 5, Scale: 0.002})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s, err := trace.Collect(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := float64(s.IFetches()) / float64(s.Total)
		want := p.IFetchFrac()
		if math.Abs(got-want) > 0.02 {
			t.Errorf("%s: ifetch fraction %.3f, want %.3f ± 0.02", name, got, want)
		}
	}
}

func TestGeneratorPIDTag(t *testing.T) {
	p, _ := FindProfile("sed")
	g, _ := NewGenerator(p, Options{Seed: 1, Scale: 0.001, PID: 7})
	refs, _ := trace.Drain(g)
	for _, r := range refs[:100] {
		if r.PID != 7 {
			t.Fatalf("ref has PID %d, want 7", r.PID)
		}
	}
}

func TestTable2Inventory(t *testing.T) {
	profiles := Table2()
	if len(profiles) != 18 {
		t.Fatalf("Table2 has %d profiles, want 18", len(profiles))
	}
	names := map[string]bool{}
	for _, p := range profiles {
		if names[p.Name] {
			t.Errorf("duplicate profile %q", p.Name)
		}
		names[p.Name] = true
		if p.IFetchMillions <= 0 || p.TotalMillions <= 0 {
			t.Errorf("%s: missing Table 2 counts", p.Name)
		}
		if p.IFetchMillions >= p.TotalMillions {
			t.Errorf("%s: ifetches %.1f >= total %.1f", p.Name, p.IFetchMillions, p.TotalMillions)
		}
		if p.CodeBytes == 0 || len(p.Regions) == 0 {
			t.Errorf("%s: incomplete profile", p.Name)
		}
	}
	// §4.2: the combined workload totals 1.1 billion references.
	if tot := Table2TotalMillions(); math.Abs(tot-1093.1) > 1 {
		t.Errorf("combined total = %.1f M, want ~1093 M (1.1 billion)", tot)
	}
}

func TestFindProfile(t *testing.T) {
	if _, ok := FindProfile("compress"); !ok {
		t.Error("FindProfile(compress) failed")
	}
	if _, ok := FindProfile("nonesuch"); ok {
		t.Error("FindProfile(nonesuch) succeeded")
	}
}

// TestWorkloadNames pins the three kinds of workload name: "" is the
// Table 2 set, a program's name is that program alone, and Phased is
// the Table 2 set with phases; any other name is refused.
func TestWorkloadNames(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n      int
		phased bool
	}{{"", 18, false}, {"compress", 1, false}, {Phased, 18, true}} {
		profiles, ok := Workload(tc.name)
		if !ok || len(profiles) != tc.n {
			t.Fatalf("Workload(%q) = %d profiles, %v; want %d", tc.name, len(profiles), ok, tc.n)
		}
		if phased := len(profiles[0].Phases) > 0; phased != tc.phased {
			t.Errorf("Workload(%q): first program phased = %v, want %v", tc.name, phased, tc.phased)
		}
	}
	if _, ok := Workload("nonesuch"); ok {
		t.Error("Workload(nonesuch) succeeded")
	}
}

func TestAllProfilesGenerate(t *testing.T) {
	for _, p := range Table2() {
		g, err := NewGenerator(p, Options{Seed: 3, Scale: 0.0005})
		if err != nil {
			t.Errorf("%s: %v", p.Name, err)
			continue
		}
		s, err := trace.Collect(g)
		if err != nil {
			t.Errorf("%s: %v", p.Name, err)
			continue
		}
		if s.Total == 0 {
			t.Errorf("%s: empty trace", p.Name)
		}
		// Every profile must touch code and (given the Table 2 mixes)
		// produce both loads and at least some stores.
		if s.IFetches() == 0 || s.Loads() == 0 {
			t.Errorf("%s: degenerate mix %+v", p.Name, s.ByKind)
		}
	}
}

func TestKernelTLBMissTrace(t *testing.T) {
	k := NewKernel(1)
	entries := []uint64{0xF100_0000, 0xF100_0040}
	refs := k.AppendTLBMiss(nil, entries)
	var loads, fetches int
	for _, r := range refs {
		if r.PID != mem.KernelPID {
			t.Fatalf("kernel ref has PID %d", r.PID)
		}
		switch r.Kind {
		case mem.Load:
			loads++
		case mem.IFetch:
			fetches++
		}
	}
	if loads != len(entries) {
		t.Errorf("TLB miss trace has %d loads, want %d", loads, len(entries))
	}
	if fetches < 15 {
		t.Errorf("TLB miss trace has %d ifetches, want >= 15", fetches)
	}
	// The entry loads must reference exactly the given addresses.
	var got []uint64
	for _, r := range refs {
		if r.Kind == mem.Load {
			got = append(got, uint64(r.Addr))
		}
	}
	for i, e := range entries {
		if got[i] != e {
			t.Errorf("probe %d loads %#x, want %#x", i, got[i], e)
		}
	}
}

func TestKernelPageFaultTrace(t *testing.T) {
	k := NewKernel(1)
	scan := []uint64{0xF200_0000, 0xF200_0040, 0xF200_0080}
	update := []uint64{0xF200_0040, 0xF200_1000}
	refs := k.AppendPageFault(nil, scan, update)
	var stores int
	for _, r := range refs {
		if r.Kind == mem.Store {
			stores++
		}
	}
	if stores != len(scan)+len(update) {
		t.Errorf("page fault trace has %d stores, want %d", stores, len(scan)+len(update))
	}
	if len(refs) < 40 {
		t.Errorf("page fault trace has %d refs, want >= 40", len(refs))
	}
}

func TestKernelContextSwitchTrace(t *testing.T) {
	n := ContextSwitchRefCount()
	// §4.6: approximately 400 references per context switch.
	if n < 350 || n > 470 {
		t.Errorf("context switch trace has %d refs, want ~400", n)
	}
	k := NewKernel(1)
	refs := k.AppendContextSwitch(nil, 2, 3)
	var stores, loads int
	for _, r := range refs {
		if r.PID != mem.KernelPID {
			t.Fatal("context switch ref not kernel-tagged")
		}
		switch r.Kind {
		case mem.Store:
			stores++
		case mem.Load:
			loads++
		}
	}
	if stores == 0 || loads == 0 {
		t.Errorf("context switch trace: %d stores, %d loads; want both > 0", stores, loads)
	}
}

func TestKernelAppendReusesBuffer(t *testing.T) {
	k := NewKernel(1)
	buf := make([]mem.Ref, 0, 1024)
	out := k.AppendTLBMiss(buf, []uint64{0xF0000000})
	if &out[0] != &buf[:1][0] {
		t.Error("AppendTLBMiss reallocated despite sufficient capacity")
	}
}

func TestPhaseValidation(t *testing.T) {
	base := Profile{
		Name: "p", TotalMillions: 1, IFetchMillions: 0.5, CodeBytes: 4096,
		Regions: []Region{{Name: "a", Size: 8192, Weight: 1}, {Name: "b", Size: 8192, Weight: 1}},
	}
	bad := base
	bad.Phases = []Phase{{Frac: 1, Weights: []float64{1}}} // wrong arity
	if _, err := NewGenerator(bad, Options{Scale: 0.001}); err == nil {
		t.Error("phase with wrong weight arity accepted")
	}
	bad = base
	bad.Phases = []Phase{{Frac: 0, Weights: []float64{1, 1}}}
	if _, err := NewGenerator(bad, Options{Scale: 0.001}); err == nil {
		t.Error("zero-fraction phase accepted")
	}
	bad = base
	bad.Phases = []Phase{{Frac: 1, Weights: []float64{0, 0}}}
	if _, err := NewGenerator(bad, Options{Scale: 0.001}); err == nil {
		t.Error("all-silent phase accepted")
	}
	bad = base
	bad.Phases = []Phase{{Frac: 1, Weights: []float64{-1, 2}}}
	if _, err := NewGenerator(bad, Options{Scale: 0.001}); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestPhasesSteerRegions(t *testing.T) {
	// Two equal phases, each touching exactly one region: the first
	// half of the data refs must land in region a, the second in b.
	p := Profile{
		Name: "phased", TotalMillions: 0.2, IFetchMillions: 0.1, CodeBytes: 4096,
		Regions: []Region{
			{Name: "a", Size: 64 << 10, Weight: 1, Pattern: Sequential},
			{Name: "b", Size: 64 << 10, Weight: 1, Pattern: Sequential},
		},
		Phases: []Phase{
			{Frac: 1, Weights: []float64{1, 0}},
			{Frac: 1, Weights: []float64{0, 1}},
		},
	}
	g, err := NewGenerator(p, Options{Seed: 1, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	refs, err := trace.Drain(g)
	if err != nil {
		t.Fatal(err)
	}
	half := len(refs) / 2
	// Region b starts at the second region base; region a at dataBase.
	// Data refs in the first half must be below the second region.
	var wrongFirst, wrongSecond int
	for i, r := range refs {
		if r.Kind == mem.IFetch {
			continue
		}
		inA := uint64(r.Addr) < dataBase+(1<<22)
		if i < half && !inA {
			wrongFirst++
		}
		if i >= half+1000 && inA {
			wrongSecond++
		}
	}
	if wrongFirst > 0 || wrongSecond > 0 {
		t.Errorf("phase steering leaked: %d region-b refs in phase 1, %d region-a refs in phase 2",
			wrongFirst, wrongSecond)
	}
}

func TestPhasesPreserveRefCount(t *testing.T) {
	p, _ := FindProfile("compress")
	p.Phases = []Phase{
		{Frac: 1, Weights: []float64{1, 0, 0}},
		{Frac: 2, Weights: []float64{0, 1, 1}},
	}
	g, err := NewGenerator(p, Options{Seed: 1, Scale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	s, err := trace.Collect(g)
	if err != nil {
		t.Fatal(err)
	}
	if s.Total != p.Refs(0.001) {
		t.Errorf("phased run emitted %d refs, want %d", s.Total, p.Refs(0.001))
	}
}

func TestThreadSwitchShorterThanContextSwitch(t *testing.T) {
	ts, cs := ThreadSwitchRefCount(), ContextSwitchRefCount()
	if ts >= cs/5 {
		t.Errorf("thread switch (%d refs) not much cheaper than context switch (%d)", ts, cs)
	}
	if ts < 20 || ts > 60 {
		t.Errorf("thread switch = %d refs, want ~40", ts)
	}
}
