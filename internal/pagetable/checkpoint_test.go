package pagetable

import (
	"errors"
	"strings"
	"testing"

	"rampage/internal/checkpoint"
)

// lived returns a 64-frame table that has mapped, unmapped and
// released frames, so its chains, free list and stale links all carry
// state a running table leaves behind.
func lived(t *testing.T) *Inverted {
	t.Helper()
	pt := small(t, 64)
	for vpn := uint64(0); vpn < 40; vpn++ {
		f, ok := pt.AllocFree()
		if !ok {
			t.Fatal("free list exhausted")
		}
		if err := pt.Map(1, vpn, f); err != nil {
			t.Fatal(err)
		}
	}
	for vpn := uint64(0); vpn < 40; vpn += 3 {
		f, _, ok := pt.Lookup(1, vpn)
		if !ok {
			t.Fatalf("vpn %d not mapped", vpn)
		}
		if _, _, _, err := pt.Unmap(f); err != nil {
			t.Fatal(err)
		}
		if vpn%2 == 0 {
			pt.Release(f)
		}
	}
	return pt
}

// roundTrip encodes pt and decodes the payload into a fresh table of
// the same geometry, returning the decode error.
func roundTrip(t *testing.T, pt *Inverted) error {
	t.Helper()
	e := checkpoint.NewEnc()
	pt.EncodeState(e)
	d := checkpoint.NewDec(e.Bytes())
	small(t, 64).DecodeState(d)
	return d.Err()
}

// chained returns a bucket whose chain holds at least two frames, and
// its first frame.
func chained(t *testing.T, pt *Inverted) (bucket int, frame int32) {
	t.Helper()
	for b, f := range pt.hat {
		if f >= 0 && pt.next[f] >= 0 {
			return b, f
		}
	}
	t.Fatal("no chain of two frames")
	return 0, 0
}

// TestDecodeStateRejectsBrokenLinks forges the hash chains, one way
// each, and requires the decode to fail: an anchor past the table (the
// value a fuzzed checkpoint carried, which restored cleanly and then
// panicked in lookup), a chain link past the table, a chain that loops
// or merges into another, and a chained frame that maps no page. A
// genuine payload from the same table decodes, and the decoded table
// answers lookups as the original does.
func TestDecodeStateRejectsBrokenLinks(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		forge      func(pt *Inverted)
	}{
		{"bucket out of range", "links to frame", func(pt *Inverted) { pt.hat[pt.hash(1, 1)] = 2130706554 }},
		{"chain link out of range", "links to frame", func(pt *Inverted) {
			_, f := chained(t, pt)
			pt.next[pt.next[f]] = -2
		}},
		{"chain loop", "linked twice", func(pt *Inverted) {
			_, f := chained(t, pt)
			pt.next[pt.next[f]] = f
		}},
		{"chains merge", "linked twice", func(pt *Inverted) {
			b, f := chained(t, pt)
			for o := b + 1; o < len(pt.hat); o++ {
				if pt.hat[o] < 0 {
					pt.hat[o] = pt.next[f] // walked after bucket b
					return
				}
			}
			t.Fatal("no empty bucket after the chain")
		}},
		{"chained frame maps no page", "maps no page", func(pt *Inverted) {
			_, f := chained(t, pt)
			pt.flags[f] = 0
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pt := lived(t)
			tc.forge(pt)
			if err := roundTrip(t, pt); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("decode error = %v, want one naming %q", err, tc.want)
			}
		})
	}

	pt := lived(t)
	e := checkpoint.NewEnc()
	pt.EncodeState(e)
	fresh := small(t, 64)
	d := checkpoint.NewDec(e.Bytes())
	fresh.DecodeState(d)
	if err := d.Err(); err != nil {
		t.Fatalf("genuine payload: %v", err)
	}
	for vpn := uint64(0); vpn < 40; vpn++ {
		_, _, want := pt.Lookup(1, vpn)
		if _, _, got := fresh.Lookup(1, vpn); got != want {
			t.Errorf("vpn %d: restored lookup hit %v, original %v", vpn, got, want)
		}
	}
}

// TestForgedLinksFailAtRun forges the links the decode leaves to the
// operations that follow them, and requires each to refuse the state
// rather than leave the table or loop: a free list that leaves the
// table or loops, a free frame that is also chained, and a mapped
// frame chained in a bucket it does not hash to.
func TestForgedLinksFailAtRun(t *testing.T) {
	restored := func(forge func(pt *Inverted)) *Inverted {
		t.Helper()
		pt := lived(t)
		forge(pt)
		e := checkpoint.NewEnc()
		pt.EncodeState(e)
		fresh := small(t, 64)
		d := checkpoint.NewDec(e.Bytes())
		fresh.DecodeState(d)
		if err := d.Err(); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return fresh
	}
	// drain allocates and maps free frames until AllocFree reports none
	// or Map refuses one, which must happen within 64 frames.
	drain := func(pt *Inverted) error {
		for i := 0; i < 64; i++ {
			f, ok := pt.AllocFree()
			if !ok {
				return nil
			}
			if err := pt.Map(2, uint64(i), f); err != nil {
				return err
			}
		}
		return errors.New("the free list handed out more frames than the table has")
	}

	pt := restored(func(pt *Inverted) { pt.freeHead = 99 })
	if _, ok := pt.AllocFree(); ok || pt.FreeFrames() != 0 {
		t.Error("a free list head past the table handed out a frame")
	}
	pt = restored(func(pt *Inverted) { pt.freeNext[pt.freeHead] = 64 })
	if err := drain(pt); err != nil {
		t.Errorf("a free link past the table: %v", err)
	}
	pt = restored(func(pt *Inverted) { pt.freeNext[pt.freeHead] = pt.freeHead })
	if n := pt.FreeFrames(); n > 64 {
		t.Errorf("a looping free list counts %d free frames", n)
	}
	if err := drain(pt); err == nil || !strings.Contains(err.Error(), "already maps") {
		t.Errorf("a looping free list: drain error = %v, want Map to refuse a mapped frame", err)
	}
	pt = restored(func(pt *Inverted) { _, f := chained(t, pt); pt.freeHead = f })
	if err := drain(pt); err == nil || !strings.Contains(err.Error(), "already maps") {
		t.Errorf("a chained free frame: drain error = %v, want Map to refuse it", err)
	}
	var moved int32
	pt = restored(func(pt *Inverted) {
		b, f := chained(t, pt)
		next := (b + 1) % len(pt.hat)
		pt.hat[next], pt.hat[b] = f, pt.hat[next]
		moved = f
	})
	if _, _, _, err := pt.Unmap(uint64(moved)); err == nil || !strings.Contains(err.Error(), "hash chain") {
		t.Errorf("unmapping a frame chained in the wrong bucket: error = %v, want a hash chain error", err)
	}
}
