package cache

import (
	"bytes"
	"testing"

	"rampage/internal/checkpoint"
	"rampage/internal/mem"
	"rampage/internal/xrand"
)

// encodeCache returns a cache's EncodeState bytes.
func encodeCache(c *Cache) []byte {
	e := checkpoint.NewEnc()
	c.EncodeState(e)
	return e.Bytes()
}

// decodeCache decodes state into a fresh cache of cfg, failing the
// test on a decode error or trailing bytes.
func decodeCache(t *testing.T, cfg Config, state []byte) *Cache {
	t.Helper()
	c := MustNew(cfg)
	d := checkpoint.NewDec(state)
	c.DecodeState(d)
	if err := d.Err(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d trailing bytes after the cache state", d.Remaining())
	}
	return c
}

// TestCheckpointCacheStateRoundTrip pins the cache's checkpoint codec
// on direct-mapped, LRU and random-replacement geometries: a cache
// decoded from another's state re-encodes to the same bytes, and from
// then on every access returns what the original returns, with equal
// statistics.
func TestCheckpointCacheStateRoundTrip(t *testing.T) {
	for name, cfg := range map[string]Config{
		"dm":          {Name: "L1", SizeBytes: 4 << 10, BlockBytes: 32, Assoc: 1},
		"4way-lru":    {Name: "L2", SizeBytes: 8 << 10, BlockBytes: 64, Assoc: 4, Policy: LRU},
		"2way-random": {Name: "L2", SizeBytes: 8 << 10, BlockBytes: 64, Assoc: 2, Policy: RandomRepl, Seed: 7},
	} {
		t.Run(name, func(t *testing.T) {
			rng := xrand.New(0xC0FFEE)
			next := func() (mem.PAddr, bool) {
				return mem.PAddr(rng.Uintn(64 << 10)), rng.Chance(0.3)
			}
			orig := MustNew(cfg)
			for i := 0; i < 20_000; i++ {
				orig.Access(next())
			}
			state := encodeCache(orig)
			restored := decodeCache(t, cfg, state)
			if again := encodeCache(restored); !bytes.Equal(again, state) {
				t.Fatal("the decoded cache re-encodes to different bytes")
			}
			for i := 0; i < 20_000; i++ {
				addr, write := next()
				if got, want := restored.Access(addr, write), orig.Access(addr, write); got != want {
					t.Fatalf("access %d to %#x after the restore: got %+v, want %+v", i, addr, got, want)
				}
			}
			if got, want := restored.Stats(), orig.Stats(); got != want {
				t.Errorf("stats after the restore = %+v, want %+v", got, want)
			}
		})
	}
}

// TestCheckpointDirectMappedStampsCanonical pins the direct-mapped
// canonicalization: a hit through the fused DMHot view skips the LRU
// clock and use stamps that Hit updates, and the two caches must still
// encode to the same bytes, with zero stamps and clock. An associative
// cache keeps its stamps, since its victim choice reads them.
func TestCheckpointDirectMappedStampsCanonical(t *testing.T) {
	const addr = mem.PAddr(0x1240)
	cfg := Config{Name: "L1", SizeBytes: 4 << 10, BlockBytes: 32, Assoc: 1}
	slow, fast := MustNew(cfg), MustNew(cfg)
	for _, c := range []*Cache{slow, fast} {
		c.Access(addr, false)
	}
	if !slow.Hit(addr, false) {
		t.Fatal("Hit missed a resident block")
	}
	hot, ok := fast.DirectHot()
	if !ok {
		t.Fatal("no fast-path view of a direct-mapped cache")
	}
	block := uint64(addr) >> hot.BlockShift
	if set, tag := block&hot.SetMask, block>>hot.SetShift; hot.Tags[set] != tag {
		t.Fatal("the fast-path view missed a resident block")
	}
	hot.Stats.Hits++
	if slow.clock == fast.clock {
		t.Fatal("the two hit paths left equal LRU clocks; the test shows nothing")
	}
	state := encodeCache(slow)
	if !bytes.Equal(encodeCache(fast), state) {
		t.Error("a direct-mapped cache's bytes depend on which hit path ran")
	}
	restored := decodeCache(t, cfg, state)
	if restored.clock != 0 {
		t.Errorf("restored clock = %d, want 0", restored.clock)
	}
	for i, u := range restored.used {
		if u != 0 {
			t.Fatalf("restored use stamp %d = %d, want 0", i, u)
		}
	}
	if restored.Stats() != slow.Stats() || !restored.Probe(addr) {
		t.Errorf("restored cache lost its contents or counters: %+v", restored.Stats())
	}

	two := Config{Name: "L2", SizeBytes: 4 << 10, BlockBytes: 32, Assoc: 2, Policy: LRU}
	once, twice := MustNew(two), MustNew(two)
	once.Access(addr, false)
	twice.Access(addr, false)
	twice.Access(addr, false)
	if bytes.Equal(encodeCache(once), encodeCache(twice)) {
		t.Error("an associative cache dropped its LRU stamps")
	}
}
