package jobs

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rampage/internal/cas"
	"rampage/internal/metrics"
)

// rrs1 builds a result record by hand from the documented layout:
// "RRS1", little-endian uint32 key length, key, SHA-256 of key and
// payload, payload.
func rrs1(key string, payload []byte) []byte {
	rec := append([]byte("RRS1"), binary.LittleEndian.AppendUint32(nil, uint32(len(key)))...)
	rec = append(rec, key...)
	sum := sha256.Sum256(append([]byte(key), payload...))
	rec = append(rec, sum[:]...)
	return append(rec, payload...)
}

// resultPath is the documented file name of a result record:
// hex(sha256(key)).res in the store's directory.
func resultPath(dir, key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(dir, hex.EncodeToString(sum[:])+".res")
}

func newDisk(t *testing.T, budget int64) (*cas.Store, string, *metrics.ServiceStats) {
	t.Helper()
	dir := t.TempDir()
	stats := &metrics.ServiceStats{}
	s, err := NewDiskStore(dir, budget, stats)
	if err != nil {
		t.Fatal(err)
	}
	return s, dir, stats
}

func TestDiskStoreRoundTrip(t *testing.T) {
	s, _, stats := newDisk(t, 0)
	want := []byte(`{"doc":"payload"}`)
	s.Put("key-a", want)
	got, ok := s.Get("key-a")
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("Get = %q, %v; want %q", got, ok, want)
	}
	if _, ok := s.Get("missing"); ok {
		t.Fatal("Get(missing) hit")
	}
	if h := stats.Get(metrics.SvcDiskHit); h != 1 {
		t.Errorf("disk_hits = %d, want 1", h)
	}
	if st := stats.Get(metrics.SvcDiskStore); st != 1 {
		t.Errorf("disk_stores = %d, want 1", st)
	}
}

// TestDiskStoreCrashSafety pins the serving guarantee: a partial or
// corrupted write must never come back from Get. Torn files read as
// misses and are deleted; leftover temp files from a crashed writer
// are swept on open.
func TestDiskStoreCrashSafety(t *testing.T) {
	s, dir, _ := newDisk(t, 0)
	payload := []byte(strings.Repeat("x", 4096))
	s.Put("victim", payload)

	// Find the published file and tear it: truncate to half, as if the
	// machine died mid-write of a non-atomic writer.
	files, err := filepath.Glob(filepath.Join(dir, "*.res"))
	if err != nil || len(files) != 1 {
		t.Fatalf("glob: %v, %d files", err, len(files))
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("victim"); ok {
		t.Fatal("Get served a truncated file")
	}
	if _, err := os.Stat(files[0]); !os.IsNotExist(err) {
		t.Errorf("truncated file not deleted: %v", err)
	}

	// Corrupt one payload byte (size unchanged): checksum must catch it.
	s.Put("victim2", payload)
	files, _ = filepath.Glob(filepath.Join(dir, "*.res"))
	if len(files) != 1 {
		t.Fatalf("%d files, want 1", len(files))
	}
	raw, _ = os.ReadFile(files[0])
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(files[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("victim2"); ok {
		t.Fatal("Get served a corrupted file")
	}

	// A crashed writer's temp file must be cleaned on open and a torn
	// published file must not be indexed.
	if err := os.WriteFile(filepath.Join(dir, ".tmp-123"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "torn.res"), []byte("RRS1 garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := NewDiskStore(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := s2.Len(); n != 0 {
		t.Errorf("recovered %d entries from torn files, want 0", n)
	}
	if _, err := os.Stat(filepath.Join(dir, ".tmp-123")); !os.IsNotExist(err) {
		t.Error("temp file survived recovery")
	}
	if _, err := os.Stat(filepath.Join(dir, "torn.res")); !os.IsNotExist(err) {
		t.Error("torn file survived recovery")
	}
}

// TestDiskStoreGC pins the byte budget: least-recently-used documents
// (files included) go first, the footprint lands under budget, and
// evictions are counted.
func TestDiskStoreGC(t *testing.T) {
	val := []byte(strings.Repeat("v", 1000))
	one := int64(len(rrs1("k00", val))) // all keys same length
	s, dir, stats := newDisk(t, 3*one)
	for i := 0; i < 5; i++ {
		s.Put(fmt.Sprintf("k%02d", i), val)
	}
	if got := s.Bytes(); got > 3*one {
		t.Errorf("Bytes = %d, want <= %d", got, 3*one)
	}
	if n := s.Len(); n != 3 {
		t.Errorf("Len = %d, want 3", n)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.res"))
	if len(files) != 3 {
		t.Errorf("%d files on disk, want 3", len(files))
	}
	// Oldest two evicted; newest three remain.
	for i := 0; i < 2; i++ {
		if _, ok := s.Get(fmt.Sprintf("k%02d", i)); ok {
			t.Errorf("k%02d survived GC", i)
		}
	}
	for i := 2; i < 5; i++ {
		if _, ok := s.Get(fmt.Sprintf("k%02d", i)); !ok {
			t.Errorf("k%02d evicted, want kept", i)
		}
	}
	if ev := stats.Get(metrics.SvcDiskEvict); ev != 2 {
		t.Errorf("disk_evictions = %d, want 2", ev)
	}

	// A Get refreshes recency: touch the oldest survivor, add one more,
	// and the untouched middle entry is the eviction victim.
	s.Get("k02")
	s.Put("k05", val)
	if _, ok := s.Get("k03"); ok {
		t.Error("k03 survived; want it evicted as LRU")
	}
	if _, ok := s.Get("k02"); !ok {
		t.Error("recently read k02 evicted")
	}

	// A value bigger than the whole budget is refused outright.
	s.Put("huge", bytes.Repeat([]byte("h"), int(4*one)))
	if _, ok := s.Get("huge"); ok {
		t.Error("over-budget value stored")
	}
}

// TestDiskStoreRestartRecovery pins persistence: a new store over the
// same directory re-indexes everything with identical bytes, and its
// LRU order (from mtimes) matches the writing store's.
func TestDiskStoreRestartRecovery(t *testing.T) {
	s, dir, _ := newDisk(t, 0)
	vals := map[string][]byte{}
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("key-%d", i)
		vals[key] = []byte(strings.Repeat(fmt.Sprintf("%d", i), 100+i))
		s.Put(key, vals[key])
	}

	s2, err := NewDiskStore(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := s2.Len(); n != 4 {
		t.Fatalf("recovered Len = %d, want 4", n)
	}
	if s2.Bytes() != s.Bytes() {
		t.Errorf("recovered Bytes = %d, want %d", s2.Bytes(), s.Bytes())
	}
	for key, want := range vals {
		got, ok := s2.Get(key)
		if !ok || !bytes.Equal(got, want) {
			t.Errorf("recovered Get(%s) = %q, %v; want %q", key, got, ok, want)
		}
	}

	// Recovery must preserve LRU order, which it reads from mtimes.
	// Spread them explicitly (Get above just refreshed them all in map
	// order), then reopen with a budget that only fits the two newest
	// entries and confirm the two oldest fall out.
	base := time.Now().Add(-time.Hour)
	for i := 0; i < 4; i++ {
		when := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(resultPath(dir, fmt.Sprintf("key-%d", i)), when, when); err != nil {
			t.Fatal(err)
		}
	}
	budget := int64(len(rrs1("key-2", vals["key-2"])) + len(rrs1("key-3", vals["key-3"])))
	s3, err := NewDiskStore(dir, budget, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s3.Get("key-0"); ok {
		t.Error("key-0 (oldest mtime) survived budgeted recovery")
	}
	if _, ok := s3.Get("key-3"); !ok {
		t.Error("key-3 (newest mtime) evicted by budgeted recovery")
	}
}

// TestDiskStoreReindexesHandBuiltRecords pins the results record
// format: a directory of records written by hand from the documented
// layout and names (as an earlier build's store left them) re-indexes
// and serves every document byte-identically, without a run.
func TestDiskStoreReindexesHandBuiltRecords(t *testing.T) {
	dir := t.TempDir()
	docs := map[string][]byte{
		"run:0123abcd":            []byte(`{"version":1,"kind":"run"}`),
		"experiment:table3:89ef":  []byte(`{"version":1,"kind":"experiment","id":"table3"}`),
		"cell:4567:metrics":       bytes.Repeat([]byte{0, 0xff, '\n'}, 1000),
		"":                        []byte("empty key"),
		"experiment:empty-result": {},
	}
	for key, doc := range docs {
		if err := os.WriteFile(resultPath(dir, key), rrs1(key, doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	stats := &metrics.ServiceStats{}
	disk, err := NewDiskStore(dir, 0, stats)
	if err != nil {
		t.Fatal(err)
	}
	if disk.Len() != len(docs) {
		t.Fatalf("re-indexed %d records, want %d", disk.Len(), len(docs))
	}
	m := NewManager(Config{Workers: 1, QueueDepth: 4, Stats: stats, Disk: disk})
	defer drain(t, m)
	for key, want := range docs {
		j, err := m.Submit(Request{Key: key, Do: func(context.Context, func([]byte)) ([]byte, error) {
			t.Errorf("%q: ran instead of serving the stored record", key)
			return nil, nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Wait(context.Background(), j)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%q: served %q, %v; want %q", key, got, err, want)
		}
	}
	if hits := stats.Get(metrics.SvcDiskHit); hits != uint64(len(docs)) {
		t.Errorf("disk_hits = %d, want %d", hits, len(docs))
	}
}

// TestManagerDiskIntegration pins the lookup chain: a result computed
// once is written through to disk; after the in-memory cache is gone
// (fresh manager, same disk), the disk answers and the job never
// re-runs.
func TestManagerDiskIntegration(t *testing.T) {
	dir := t.TempDir()
	stats := &metrics.ServiceStats{}
	disk, err := NewDiskStore(dir, 0, stats)
	if err != nil {
		t.Fatal(err)
	}
	var runs int
	req := Request{
		Key:   "cell-1",
		Cells: 1,
		Do: func(ctx context.Context, progress func(cell []byte)) ([]byte, error) {
			runs++
			progress(nil)
			return []byte("result-bytes"), nil
		},
	}

	m1 := NewManager(Config{Workers: 1, QueueDepth: 4, Stats: stats, Disk: disk})
	j, err := m1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := m1.Wait(context.Background(), j)
	if err != nil || !bytes.Equal(data, []byte("result-bytes")) {
		t.Fatalf("Wait = %q, %v", data, err)
	}
	drain(t, m1)
	if runs != 1 {
		t.Fatalf("runs = %d, want 1", runs)
	}
	if _, ok := disk.Get("cell-1"); !ok {
		t.Fatal("result not written through to disk")
	}

	// Fresh manager, same disk: Lookup hits disk, promotes to memory,
	// and Submit never executes.
	disk2, err := NewDiskStore(dir, 0, stats)
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewManager(Config{Workers: 1, QueueDepth: 4, Stats: stats, Disk: disk2})
	got, ok := m2.Lookup("cell-1")
	if !ok || !bytes.Equal(got, []byte("result-bytes")) {
		t.Fatalf("Lookup after restart = %q, %v", got, ok)
	}
	j2, err := m2.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if data, err := m2.Wait(context.Background(), j2); err != nil || !bytes.Equal(data, []byte("result-bytes")) {
		t.Fatalf("Wait after restart = %q, %v", data, err)
	}
	drain(t, m2)
	if runs != 1 {
		t.Errorf("runs = %d after restart, want 1 (disk hit should skip execution)", runs)
	}
}

func drain(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}
