package synth

import (
	"errors"
	"io"
	"testing"

	"rampage/internal/mem"
)

// TestGeneratorReadBatchMatchesNext drains two identically-seeded
// generators — one reference at a time and through the column loop in
// deliberately odd batch sizes — and requires the exact same stream,
// which must also be the frozen float reference's (reference_test.go):
// Next and ReadColumns share one step, so the reference is the
// independent oracle. This pins the batched path's RNG call order:
// phases must advance once per reference window exactly as the scalar
// path does.
func TestGeneratorReadBatchMatchesNext(t *testing.T) {
	p, ok := FindProfile("swm256")
	if !ok {
		t.Fatal("swm256 profile missing")
	}
	opts := Options{Seed: 11, RefScale: 1.0 / 2000, SizeScale: 1.0 / 16}
	scalar, err := NewGenerator(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := NewGenerator(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefGenerator(t, p, opts)
	var want []mem.Ref
	for {
		r, rerr := ref.Next()
		ref, err := scalar.Next()
		if errors.Is(err, io.EOF) {
			if !errors.Is(rerr, io.EOF) {
				t.Fatalf("Next ended after %d refs, the reference did not", len(want))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ref != r {
			t.Fatalf("ref %d: Next %+v, reference %+v", len(want), ref, r)
		}
		want = append(want, ref)
	}
	var got []mem.Ref
	kinds, addrs := make([]mem.RefKind, 257), make([]mem.VAddr, 257)
	for size := 1; ; size = size%257 + 1 { // cycle through window sizes
		n, err := batched.ReadColumns(kinds[:size], addrs[:size])
		for i := range n {
			got = append(got, mem.Ref{PID: batched.PID(), Kind: kinds[i], Addr: addrs[i]})
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("stream lengths differ: batched %d vs scalar %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ref %d differs: batched %+v vs scalar %+v", i, got[i], want[i])
		}
	}
}

// TestGeneratorReadBatchZeroAlloc pins the generator's batched fills
// through the column loop: once the first read has built the draw
// tables, batches must not allocate, whether they are short or long,
// phase switches included. (The scheduler's refill window over a
// generator is pinned in internal/sim, TestRefillFromGeneratorZeroAlloc.)
func TestGeneratorReadBatchZeroAlloc(t *testing.T) {
	for _, workload := range []string{"", Phased} {
		profiles, _ := Workload(workload)
		var p Profile
		for _, p = range profiles {
			if p.Name == "swm256" {
				break
			}
		}
		g, err := NewGenerator(p, Options{Seed: 1, RefScale: 1.0 / 48, SizeScale: 1.0 / 8})
		if err != nil {
			t.Fatal(err)
		}
		kinds, addrs := make([]mem.RefKind, 4096), make([]mem.VAddr, 4096)
		if _, err := g.ReadColumns(kinds[:256], addrs[:256]); err != nil { // warm up
			t.Fatal(err)
		}
		// Short batches, then long ones through every phase to the end.
		if allocs := testing.AllocsPerRun(50, func() {
			if n, err := g.ReadColumns(kinds[:256], addrs[:256]); err != nil || n == 0 {
				t.Fatalf("ReadColumns = %d, %v", n, err)
			}
		}); allocs != 0 {
			t.Errorf("%s %q: short ReadColumns allocates %.1f times per batch", p.Name, workload, allocs)
		}
		reads := int(g.Remaining()/4096) + len(p.Phases) + 1
		if allocs := testing.AllocsPerRun(reads, func() {
			if _, err := g.ReadColumns(kinds, addrs); err != nil && !errors.Is(err, io.EOF) {
				t.Fatalf("ReadColumns: %v", err)
			}
		}); allocs != 0 {
			t.Errorf("%s %q: ReadColumns allocates %.1f times per batch", p.Name, workload, allocs)
		}
		if g.Remaining() != 0 {
			t.Errorf("%s %q: %d refs left unread", p.Name, workload, g.Remaining())
		}
	}
}
