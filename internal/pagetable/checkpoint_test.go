package pagetable

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"rampage/internal/checkpoint"
	"rampage/internal/mem"
)

// lived returns a 64-frame table that has mapped 40 pages and replaced
// every third one (unmapped it and remapped its frame to a new page),
// so its chains, free list and dead links carry state a running table
// leaves behind.
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
		if err := pt.Map(2, 1000+vpn, f); err != nil {
			t.Fatal(err)
		}
	}
	return pt
}

// encoded returns the table's EncodeState bytes.
func encoded(pt *Inverted) []byte {
	e := checkpoint.NewEnc()
	pt.EncodeState(e)
	return e.Bytes()
}

// decodeInto decodes state into a fresh 64-frame table, returning it
// and the decode error.
func decodeInto(t *testing.T, state []byte) (*Inverted, error) {
	t.Helper()
	pt := small(t, 64)
	d := checkpoint.NewDec(state)
	pt.DecodeState(d)
	if d.Err() == nil && d.Remaining() != 0 {
		t.Fatalf("%d trailing bytes after the table state", d.Remaining())
	}
	return pt, d.Err()
}

// stateEntry locates one encoded chained frame in a table's state.
type stateEntry struct {
	at     int // offset of the frame index
	frame  uint32
	bucket uint64
}

// stateEntries parses the chained frames of an encoded table, in
// encoded order, and returns them with the offset of the free-list
// head that follows them.
func stateEntries(pt *Inverted, state []byte) (entries []stateEntry, headAt int) {
	n := int(binary.LittleEndian.Uint32(state[4:]))
	at := 8
	for i := 0; i < n; i++ {
		vpn := binary.LittleEndian.Uint64(state[at+4:])
		pid := binary.LittleEndian.Uint16(state[at+12:])
		entries = append(entries, stateEntry{
			at:     at,
			frame:  binary.LittleEndian.Uint32(state[at:]),
			bucket: pt.hash(mem.PID(pid), vpn),
		})
		at += entryStateBytes
	}
	return entries, at
}

// chainPair returns two consecutive entries of one bucket: link is
// written first, head last, so the decode makes head the bucket's
// anchor and link the frame it points to.
func chainPair(t *testing.T, entries []stateEntry) (link, head stateEntry) {
	t.Helper()
	for i := 1; i < len(entries); i++ {
		if entries[i].bucket == entries[i-1].bucket {
			return entries[i-1], entries[i]
		}
	}
	t.Fatal("no chain of two frames")
	return
}

// TestDecodeStateRejectsBrokenLinks forges an encoded table, one way
// each, and requires the decode to fail. The decode builds every chain
// itself, so a forgery that would once have broken a link is now a bad
// frame entry: an anchor past the table is a chain head naming a frame
// past it (the value a fuzzed checkpoint carried, which restored
// cleanly and then panicked in lookup), a link past the table is any
// other entry doing so, a loop or a merge is a frame listed twice
// (under the same page or under pages of two buckets), and a chained
// frame that maps no page is an entry without its valid bit. A free
// list head past the table or on a chained frame fails too. A genuine
// payload from the same table decodes, re-encodes to the same bytes,
// and answers every lookup with the original's frame and probes.
func TestDecodeStateRejectsBrokenLinks(t *testing.T) {
	put32 := func(state []byte, at int, v uint32) { binary.LittleEndian.PutUint32(state[at:], v) }
	for _, tc := range []struct {
		name, want string
		forge      func(entries []stateEntry, headAt int, state []byte)
	}{
		{"bucket out of range", "frame 2130706554 of 64", func(entries []stateEntry, _ int, state []byte) {
			_, head := chainPair(t, entries)
			put32(state, head.at, 2130706554)
		}},
		{"chain link out of range", "frame 64 of 64", func(entries []stateEntry, _ int, state []byte) {
			link, _ := chainPair(t, entries)
			put32(state, link.at, 64)
		}},
		{"chain loop", "listed twice", func(entries []stateEntry, _ int, state []byte) {
			link, head := chainPair(t, entries)
			copy(state[head.at:head.at+entryStateBytes], state[link.at:])
		}},
		{"chains merge", "listed twice", func(entries []stateEntry, _ int, state []byte) {
			for _, e := range entries[1:] {
				if e.bucket != entries[0].bucket {
					put32(state, e.at, entries[0].frame)
					return
				}
			}
			t.Fatal("every frame hashes to one bucket")
		}},
		{"chained frame maps no page", "maps no page", func(entries []stateEntry, _ int, state []byte) {
			state[entries[0].at+entryStateBytes-1] &^= flagValid
		}},
		{"free list head past the table", "free list head", func(_ []stateEntry, headAt int, state []byte) {
			put32(state, headAt, 64)
		}},
		{"free list head on a chained frame", "free list head", func(entries []stateEntry, headAt int, state []byte) {
			put32(state, headAt, entries[0].frame)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pt := lived(t)
			state := encoded(pt)
			entries, headAt := stateEntries(pt, state)
			tc.forge(entries, headAt, state)
			if _, err := decodeInto(t, state); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("decode error = %v, want one naming %q", err, tc.want)
			}
		})
	}

	pt := lived(t)
	state := encoded(pt)
	fresh, err := decodeInto(t, state)
	if err != nil {
		t.Fatalf("genuine payload: %v", err)
	}
	if again := encoded(fresh); string(again) != string(state) {
		t.Error("the decoded table re-encodes to different bytes")
	}
	for _, page := range []struct {
		pid uint16
		vpn uint64
	}{{1, 1}, {1, 3}, {2, 1003}, {1, 39}, {2, 1039}, {1, 40}} {
		wf, wp, wok := pt.Lookup(mem.PID(page.pid), page.vpn)
		gf, gp, gok := fresh.Lookup(mem.PID(page.pid), page.vpn)
		if gf != wf || gok != wok || len(gp) != len(wp) {
			t.Errorf("page %+v: restored lookup = (%d, %d probes, %v), original (%d, %d probes, %v)",
				page, gf, len(gp), gok, wf, len(wp), wok)
		}
	}
	if fresh.FreeFrames() != pt.FreeFrames() {
		t.Errorf("restored table has %d free frames, original %d", fresh.FreeFrames(), pt.FreeFrames())
	}
}

// TestForgedLinksFailAtRun forges the one link the decode cannot check
// without walking the free list: a head on an unchained frame earlier
// in the construction order than the true head, so the list runs into
// frames that map pages. The decode accepts it, and the next
// allocations must end in Map refusing a mapped frame, within as many
// frames as the table has, rather than leave the table or loop.
func TestForgedLinksFailAtRun(t *testing.T) {
	pt := lived(t)
	f, _, ok := pt.Lookup(1, 1)
	if !ok {
		t.Fatal("vpn 1 not mapped")
	}
	if _, _, _, err := pt.Unmap(f); err != nil {
		t.Fatal(err)
	}
	pt.freeHead = int32(f)
	restored, err := decodeInto(t, encoded(pt))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	drain := func(pt *Inverted) error {
		for i := 0; i < 64; i++ {
			f, ok := pt.AllocFree()
			if !ok {
				return nil
			}
			if err := pt.Map(3, uint64(i), f); err != nil {
				return err
			}
		}
		return errors.New("the free list handed out more frames than the table has")
	}
	if err := drain(restored); err == nil || !strings.Contains(err.Error(), "already maps") {
		t.Errorf("a head before mapped frames: drain error = %v, want Map to refuse a mapped frame", err)
	}
}
