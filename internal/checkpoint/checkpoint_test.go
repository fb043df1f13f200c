package checkpoint

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rampage/internal/metrics"
)

func mkCkpt(prefix string, refs uint64, final bool, payload []byte) *Checkpoint {
	return &Checkpoint{
		Meta:    Meta{Prefix: prefix, Refs: refs, Final: final},
		System:  "test-machine",
		Payload: payload,
	}
}

func TestCheckpointEncodeDecodeRoundTrip(t *testing.T) {
	for _, c := range []*Checkpoint{
		mkCkpt("abc123", 500_000, false, []byte{1, 2, 3, 0xFF}),
		mkCkpt("", 0, true, nil),
		mkCkpt("deadbeef", 1<<40, true, bytes.Repeat([]byte{0xAB}, 4096)),
	} {
		enc := c.Encode()
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.Meta != c.Meta || got.System != c.System || !bytes.Equal(got.Payload, c.Payload) {
			t.Errorf("round trip changed the checkpoint: got %+v want %+v", got, c)
		}
		if re := got.Encode(); !bytes.Equal(re, enc) {
			t.Error("re-encode is not byte-identical")
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	valid := mkCkpt("abc", 42, false, []byte{9, 9, 9}).Encode()

	// Every strict prefix must fail cleanly (truncation at any point).
	for n := 0; n < len(valid); n++ {
		if _, err := Decode(valid[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	// Trailing garbage is refused.
	if _, err := Decode(append(append([]byte{}, valid...), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	// Bad magic and unknown format version are refused.
	bad := append([]byte{}, valid...)
	bad[0] ^= 0xFF
	if _, err := Decode(bad); err == nil {
		t.Error("bad magic accepted")
	}
	bad = append([]byte{}, valid...)
	bad[4] ^= 0xFF // format version field
	if _, err := Decode(bad); err == nil {
		t.Error("unknown format version accepted")
	}
}

func TestUsableDominance(t *testing.T) {
	for _, tc := range []struct {
		name             string
		meta             Meta
		maxRefs          uint64
		complete, resume bool
	}{
		{"uncapped wants final", Meta{Refs: 100, Final: true}, 0, true, false},
		{"uncapped resumes non-final", Meta{Refs: 100, Final: false}, 0, false, true},
		{"final below budget is complete", Meta{Refs: 100, Final: true}, 200, true, false},
		{"final at budget unusable", Meta{Refs: 200, Final: true}, 200, false, false},
		{"final beyond budget unusable", Meta{Refs: 300, Final: true}, 200, false, false},
		{"non-final at budget is complete", Meta{Refs: 200, Final: false}, 200, true, false},
		{"non-final below budget resumes", Meta{Refs: 100, Final: false}, 200, false, true},
		{"non-final beyond budget unusable", Meta{Refs: 300, Final: false}, 200, false, false},
	} {
		comp, res := usable(tc.meta, tc.maxRefs)
		if comp != tc.complete || res != tc.resume {
			t.Errorf("%s: usable(%+v, %d) = (%t, %t), want (%t, %t)",
				tc.name, tc.meta, tc.maxRefs, comp, res, tc.complete, tc.resume)
		}
	}
}

// newStore opens a store, failing the test on error.
func newStore(t *testing.T, budget int64, dir string, svc *metrics.ServiceStats) *Store {
	t.Helper()
	s, err := NewStore(budget, dir, svc)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreNearestPicksWarmest(t *testing.T) {
	svc := &metrics.ServiceStats{}
	s := newStore(t, 0, "", svc)
	s.Put(mkCkpt("p", 100, false, []byte{1}))
	s.Put(mkCkpt("p", 300, false, []byte{3}))
	s.Put(mkCkpt("p", 200, false, []byte{2}))
	s.Put(mkCkpt("other", 400, false, []byte{4}))

	c, complete, ok := s.Nearest("p", 500)
	if !ok || complete || c.Meta.Refs != 300 {
		t.Fatalf("Nearest(p, 500) = (%+v, %t, %t), want the 300-ref resume", c, complete, ok)
	}
	// A final checkpoint below the budget beats any resume.
	s.Put(mkCkpt("p", 250, true, []byte{5}))
	if c, complete, ok = s.Nearest("p", 500); !ok || !complete || c.Meta.Refs != 250 {
		t.Fatalf("Nearest with a final answer = (%+v, %t, %t), want the complete 250", c, complete, ok)
	}
	// Unknown prefix misses.
	if _, _, ok = s.Nearest("nope", 500); ok {
		t.Error("unknown prefix produced a checkpoint")
	}
	if svc.Get(metrics.SvcCkptHit) != 2 || svc.Get(metrics.SvcCkptMiss) != 1 {
		t.Errorf("hit/miss = %d/%d, want 2/1",
			svc.Get(metrics.SvcCkptHit), svc.Get(metrics.SvcCkptMiss))
	}
}

// TestStoreLRUEvictsToDisk pins the tiering: every Put is written
// through to disk, the memory tier keeps the most recent checkpoints
// within its budget, and a checkpoint evicted from memory is still
// counted and served from its record.
func TestStoreLRUEvictsToDisk(t *testing.T) {
	dir := t.TempDir()
	svc := &metrics.ServiceStats{}
	payload := bytes.Repeat([]byte{7}, 256)
	one := mkCkpt("a", 1, false, payload)
	budget := int64(len(one.Encode())*2 + 1) // room for two residents

	s := newStore(t, budget, dir, svc)
	s.Put(one)
	s.Put(mkCkpt("b", 1, false, payload))
	s.Put(mkCkpt("c", 1, false, payload)) // evicts "a" (LRU) from memory
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (evicted entries on disk still count)", s.Len())
	}
	if s.Bytes() > budget {
		t.Errorf("resident bytes %d exceed budget %d", s.Bytes(), budget)
	}
	if svc.Get(metrics.SvcCkptEvict) != 1 {
		t.Errorf("evictions = %d, want 1", svc.Get(metrics.SvcCkptEvict))
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if len(files) != 3 {
		t.Fatalf("records = %v, want three (every Put is written through)", files)
	}
	// The evicted checkpoint is still served, byte-identical.
	c, _, ok := s.Nearest("a", 0)
	if !ok || !bytes.Equal(c.Payload, payload) {
		t.Fatalf("evicted checkpoint not restored: ok=%t", ok)
	}
	// A corrupt record is a miss and is forgotten, not served or kept.
	dir2 := t.TempDir()
	s2 := newStore(t, budget, dir2, nil)
	s2.Put(mkCkpt("x", 1, false, payload))
	s2.Put(mkCkpt("y", 1, false, payload))
	s2.Put(mkCkpt("z", 1, false, payload)) // evicts "x" from memory
	files, _ = filepath.Glob(filepath.Join(dir2, "*.ckpt"))
	for _, f := range files {
		os.WriteFile(f, []byte("garbage"), 0o644)
	}
	if _, _, ok := s2.Nearest("x", 0); ok {
		t.Error("corrupt record served")
	}
	if s2.Len() != 2 {
		t.Errorf("corrupt entry not dropped: Len = %d, want 2", s2.Len())
	}
}

// TestStoreReopenReindexesCheckpoints pins that checkpoints survive a
// restart: a store reopened on the directory indexes every record
// (Meta parsed from its key) and serves it byte-identically, while
// torn temp files and records that fail their checksum are removed
// and unrelated files stay.
func TestStoreReopenReindexesCheckpoints(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte{7}, 256)
	budget := int64(len(mkCkpt("a", 1, false, payload).Encode())) - 1 // every put lives on disk only
	s := newStore(t, budget, dir, nil)
	for _, prefix := range []string{"a", "b", "c"} {
		s.Put(mkCkpt(prefix, 1, false, payload))
	}
	s.Put(mkCkpt("a", 5, true, payload))
	records, _ := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if s.Len() != 4 || len(records) != 4 {
		t.Fatalf("Len = %d with %d records, want 4 checkpoints on disk", s.Len(), len(records))
	}
	tornTmp := filepath.Join(dir, ".tmp-0123")
	tornSpill := filepath.Join(dir, "0123.ckpt.tmp")
	corrupt := filepath.Join(dir, "0123.ckpt")
	other := filepath.Join(dir, "notes.txt")
	for _, f := range []string{tornTmp, tornSpill, corrupt, other} {
		if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	svc := &metrics.ServiceStats{}
	reopened := newStore(t, budget, dir, svc)
	if reopened.Len() != 4 {
		t.Errorf("reopened store has %d checkpoints, want 4", reopened.Len())
	}
	if refs, complete, ok := reopened.Peek("a", 0); !ok || !complete || refs != 5 {
		t.Errorf("Peek(a) after reopen = (%d, %t, %t), want the complete 5", refs, complete, ok)
	}
	for _, prefix := range []string{"a", "b", "c"} {
		c, _, ok := reopened.Nearest(prefix, 1)
		if !ok || c.Meta != (Meta{Prefix: prefix, Refs: 1}) || !bytes.Equal(c.Payload, payload) {
			t.Errorf("Nearest(%s) after reopen = (%+v, %t), want the stored checkpoint", prefix, c, ok)
		}
	}
	if hits := svc.Get(metrics.SvcCkptHit); hits != 3 {
		t.Errorf("checkpoint_hits = %d, want 3", hits)
	}
	for _, f := range []string{tornTmp, tornSpill, corrupt} {
		if _, err := os.Stat(f); !os.IsNotExist(err) {
			t.Errorf("%s survived the reopen (stat err %v)", filepath.Base(f), err)
		}
	}
	if _, err := os.Stat(other); err != nil {
		t.Errorf("unrelated file removed: %v", err)
	}
}

// TestStoreOverBudgetPutLivesOnDisk pins the straight-to-disk path
// for a checkpoint larger than the whole budget: its bytes are held
// only by its record, so the store reports no resident bytes and,
// once the file is gone, Nearest misses instead of serving a copy
// kept in memory.
func TestStoreOverBudgetPutLivesOnDisk(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte{7}, 256)
	big := mkCkpt("a", 1, false, payload)
	s := newStore(t, int64(len(big.Encode()))-1, dir, nil)
	s.Put(big)
	records, _ := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if s.Len() != 1 || len(records) != 1 || s.Bytes() != 0 {
		t.Fatalf("Len = %d, records = %d, Bytes = %d; want one checkpoint on disk and no resident bytes", s.Len(), len(records), s.Bytes())
	}
	if err := os.Remove(records[0]); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Nearest("a", 0); ok {
		t.Error("Nearest served an over-budget checkpoint whose record is gone")
	}
}

func TestStoreDropInsteadOfSpill(t *testing.T) {
	payload := bytes.Repeat([]byte{7}, 256)
	one := mkCkpt("a", 1, false, payload)
	budget := int64(len(one.Encode()) + 1) // room for one resident
	s := newStore(t, budget, "", nil)      // no directory
	s.Put(one)
	s.Put(mkCkpt("b", 1, false, payload)) // evicts and drops "a"
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1 (no directory: eviction drops)", s.Len())
	}
	if _, _, ok := s.Peek("a", 0); ok {
		t.Error("Peek found a dropped checkpoint")
	}
	if _, _, ok := s.Nearest("a", 0); ok {
		t.Error("dropped checkpoint still served")
	}
}

func TestStorePeekIsAdvisoryOnly(t *testing.T) {
	svc := &metrics.ServiceStats{}
	s := newStore(t, 0, "", svc)
	s.Put(mkCkpt("p", 100, false, []byte{1}))
	s.Put(mkCkpt("p", 50, true, []byte{2}))

	refs, complete, ok := s.Peek("p", 500)
	if !ok || !complete || refs != 50 {
		t.Errorf("Peek = (%d, %t, %t), want the complete 50", refs, complete, ok)
	}
	if refs, complete, ok = s.Peek("p", 100); !ok || !complete || refs != 100 {
		t.Errorf("Peek at-budget = (%d, %t, %t), want the complete 100", refs, complete, ok)
	}
	if _, _, ok = s.Peek("nope", 0); ok {
		t.Error("Peek found an unknown prefix")
	}
	if h, m := svc.Get(metrics.SvcCkptHit), svc.Get(metrics.SvcCkptMiss); h != 0 || m != 0 {
		t.Errorf("Peek counted hits/misses: %d/%d", h, m)
	}
}

// BenchmarkStorePeek times the planner's per-cell lookup against a
// store that also holds many checkpoints of unrelated prefixes, as a
// long-lived checkpoint directory does. The prefix index keeps ns/op
// flat in the number of unrelated prefixes.
func BenchmarkStorePeek(b *testing.B) {
	for _, n := range []int{10, 1_000, 10_000} {
		b.Run(fmt.Sprintf("prefixes=%d", n), func(b *testing.B) {
			s, err := NewStore(0, "", nil)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				s.Put(mkCkpt(fmt.Sprintf("unrelated%05d", i), 1_000, true, []byte{1}))
			}
			s.Put(mkCkpt("target", 500, false, []byte{2}))
			s.Put(mkCkpt("target", 1_000, true, []byte{3}))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, complete, ok := s.Peek("target", 2_000); !ok || !complete {
					b.Fatal("Peek missed the target's final checkpoint")
				}
			}
		})
	}
}

// TestParseKeyInvertsEntryKey pins the re-index's key parsing: every
// address entryKey produces parses back to its Meta, and keys it
// would not produce are refused.
func TestParseKeyInvertsEntryKey(t *testing.T) {
	for _, m := range []Meta{
		{Prefix: "0123abcd", Refs: 500_000},
		{Prefix: "", Refs: 0, Final: true},
		{Prefix: "a@b/c", Refs: 1 << 63, Final: true},
	} {
		if got, ok := parseKey(entryKey(m)); !ok || got != m {
			t.Errorf("parseKey(%q) = (%+v, %t), want %+v", entryKey(m), got, ok, m)
		}
	}
	for _, key := range []string{"", "p", "p@1", "p@/true", "p@x/true", "p@01/true", "p@1/yes", "p@1/TRUE", "p/1@true"} {
		if m, ok := parseKey(key); ok {
			t.Errorf("parseKey(%q) accepted as %+v", key, m)
		}
	}
}

// FuzzCheckpointRoundTrip drives Decode with arbitrary bytes: it must
// never panic, and any input it accepts must re-encode byte-identically
// (the codec has exactly one encoding per checkpoint).
func FuzzCheckpointRoundTrip(f *testing.F) {
	f.Add(mkCkpt("abc123", 500_000, false, []byte{1, 2, 3}).Encode())
	f.Add(mkCkpt("", 0, true, nil).Encode())
	f.Add(mkCkpt("ff00", 1<<40, true, bytes.Repeat([]byte{0xAB}, 64)).Encode())
	f.Add([]byte{})
	f.Add([]byte{0x31, 0x4B, 0x50, 0x52})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Decode(data)
		if err != nil {
			return
		}
		re := c.Encode()
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted input re-encodes differently:\n in: %x\nout: %x", data, re)
		}
		c2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded checkpoint rejected: %v", err)
		}
		if c2.Meta != c.Meta || c2.System != c.System || !bytes.Equal(c2.Payload, c.Payload) {
			t.Fatal("second decode disagrees with the first")
		}
	})
}
