package cas

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"rampage/internal/metrics"
)

func openDisk(t *testing.T, dir, ext string, budget int64, c Counters) *Store {
	t.Helper()
	s, err := Open(dir, ext, budget, c)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRecordLayout pins the on-disk record byte for byte: "RRS1", the
// little-endian uint32 key length, the key, SHA-256 of key and
// payload, then the payload, in a file named hex(SHA-256(key)) plus
// the namespace's extension.
func TestRecordLayout(t *testing.T) {
	dir := t.TempDir()
	s := openDisk(t, dir, ".res", 0, Counters{})
	key, payload := "run:abc:metrics", []byte(`{"cycles":1}`)
	s.Put(key, payload)

	want := []byte("RRS1")
	want = binary.LittleEndian.AppendUint32(want, uint32(len(key)))
	want = append(want, key...)
	sum := sha256.Sum256(append([]byte(key), payload...))
	want = append(want, sum[:]...)
	want = append(want, payload...)

	name := sha256.Sum256([]byte(key))
	got, err := os.ReadFile(filepath.Join(dir, hex.EncodeToString(name[:])+".res"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("record = %x\nwant     %x", got, want)
	}
	if s.Bytes() != int64(len(want)) {
		t.Errorf("Bytes = %d, want the record length %d", s.Bytes(), len(want))
	}
}

// TestMemoryOverDisk pins the tier chain: Put writes through, Get
// falls through to disk and promotes the hit, a value over the memory
// budget lives on disk only, and each tier counts what its owner bound.
func TestMemoryOverDisk(t *testing.T) {
	stats := &metrics.ServiceStats{}
	disk := openDisk(t, t.TempDir(), ".res", 0, Counters{
		Hit:   stats.Counter(metrics.SvcDiskHit),
		Store: stats.Counter(metrics.SvcDiskStore),
	})
	mem := NewMemory(10, disk, Counters{
		Hit:   stats.Counter(metrics.SvcCacheHit),
		Evict: stats.Counter(metrics.SvcCacheEvict),
	})
	mem.Put("a", []byte("aaaaaa"))
	mem.Put("b", []byte("bbbbbb")) // evicts "a" from memory
	if mem.Len() != 1 || disk.Len() != 2 {
		t.Fatalf("memory/disk entries = %d/%d, want 1/2", mem.Len(), disk.Len())
	}
	if !mem.Has("a") || !mem.Has("b") || mem.Has("c") {
		t.Error("Has disagrees with the chain's contents")
	}

	// A disk hit is promoted: the second Get is a memory hit.
	for i := 0; i < 2; i++ {
		if v, ok := mem.Get("a"); !ok || string(v) != "aaaaaa" {
			t.Fatalf("Get(a) #%d = (%q, %t)", i, v, ok)
		}
	}
	if h, d := stats.Get(metrics.SvcCacheHit), stats.Get(metrics.SvcDiskHit); h != 1 || d != 1 {
		t.Errorf("cache/disk hits = %d/%d, want 1/1", h, d)
	}
	if e, st := stats.Get(metrics.SvcCacheEvict), stats.Get(metrics.SvcDiskStore); e != 2 || st != 2 {
		t.Errorf("cache evictions/disk stores = %d/%d, want 2/2 (the promotion evicted b; promotions write nothing)", e, st)
	}

	// Over the memory budget: stored on disk only, and still served.
	mem.Put("big", bytes.Repeat([]byte{'x'}, 11))
	if mem.Bytes() > 10 || disk.Len() != 3 {
		t.Errorf("memory bytes %d, disk entries %d; want <= 10 and 3", mem.Bytes(), disk.Len())
	}
	if v, ok := mem.Get("big"); !ok || len(v) != 11 {
		t.Errorf("Get(big) = (%q, %t)", v, ok)
	}
}

// TestRePutKeepsFirstBytes pins that a key already stored keeps its
// first bytes in every tier and only refreshes its recency.
func TestRePutKeepsFirstBytes(t *testing.T) {
	dir := t.TempDir()
	disk := openDisk(t, dir, ".res", 0, Counters{})
	mem := NewMemory(0, disk, Counters{})
	mem.Put("k", []byte("first"))
	mem.Put("k", []byte("second"))
	if v, _ := mem.Get("k"); string(v) != "first" {
		t.Errorf("memory tier serves %q, want the first bytes", v)
	}
	if v, _ := openDisk(t, dir, ".res", 0, Counters{}).Get("k"); string(v) != "first" {
		t.Errorf("disk tier serves %q, want the first bytes", v)
	}
}

// TestNamespacesShareDirectory pins that two namespaces can live in
// one directory: each re-indexes only its own records and leaves the
// other's alone.
func TestNamespacesShareDirectory(t *testing.T) {
	dir := t.TempDir()
	res := openDisk(t, dir, ".res", 0, Counters{})
	ckpt := openDisk(t, dir, ".ckpt", 0, Counters{})
	for i := 0; i < 3; i++ {
		res.Put(fmt.Sprintf("doc-%d", i), []byte("result"))
		ckpt.Put(fmt.Sprintf("ck-%d", i), []byte("checkpoint"))
	}
	res2 := openDisk(t, dir, ".res", 0, Counters{})
	ckpt2 := openDisk(t, dir, ".ckpt", 0, Counters{})
	for _, tc := range []struct {
		s    *Store
		want string
	}{{res2, "[doc-0 doc-1 doc-2]"}, {ckpt2, "[ck-0 ck-1 ck-2]"}} {
		keys := tc.s.Keys()
		sort.Strings(keys) // equal mtimes leave the recency order open
		if got := fmt.Sprint(keys); got != tc.want {
			t.Errorf("re-indexed %s, want %s", got, tc.want)
		}
	}
	if v, ok := ckpt2.Get("ck-1"); !ok || string(v) != "checkpoint" {
		t.Errorf("Get(ck-1) = (%q, %t)", v, ok)
	}
	if _, ok := res2.Get("ck-1"); ok {
		t.Error("the results namespace served a checkpoint")
	}
}

// TestNilStoreHoldsNothing pins the nil tier that owners without a
// disk directory pass around.
func TestNilStoreHoldsNothing(t *testing.T) {
	var s *Store
	s.Put("k", []byte("v"))
	if _, ok := s.Get("k"); ok || s.Has("k") {
		t.Error("nil store holds a value")
	}
}

// TestOpenUnusableDirectory pins that a directory that cannot be
// created fails Open instead of silently dropping every write.
func TestOpenUnusableDirectory(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(filepath.Join(file, "dir"), ".res", 0, Counters{}); err == nil {
		t.Error("Open under a regular file succeeded")
	}
	nested := filepath.Join(t.TempDir(), "a", "b")
	s := openDisk(t, nested, ".res", 0, Counters{})
	s.Put("k", []byte("v"))
	if v, ok := openDisk(t, nested, ".res", 0, Counters{}).Get("k"); !ok || string(v) != "v" {
		t.Errorf("reopened nested store: Get = (%q, %t)", v, ok)
	}
}

// TestChainConcurrentUse drives one memory-over-disk chain from several
// goroutines with budgets small enough to evict in both tiers; run it
// under -race.
func TestChainConcurrentUse(t *testing.T) {
	disk := openDisk(t, t.TempDir(), ".res", 600, Counters{})
	mem := NewMemory(200, disk, Counters{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (i*7+g)%23)
				val := bytes.Repeat([]byte(key), 10)
				if v, ok := mem.Get(key); ok && !bytes.Equal(v, val) {
					t.Errorf("Get(%s) = %q, want %q", key, v, val)
					return
				}
				mem.Put(key, val)
				mem.Has(key)
			}
		}(g)
	}
	wg.Wait()
	if mem.Bytes() > 200 || disk.Bytes() > 600 {
		t.Errorf("bytes memory/disk = %d/%d, over budget", mem.Bytes(), disk.Bytes())
	}
}

// FuzzRecord drives the record decoder with arbitrary bytes: it must
// never panic, and any record it accepts must re-encode to the same
// bytes with the same key.
func FuzzRecord(f *testing.F) {
	f.Add(encode("key", []byte("payload")))
	f.Add(encode("", nil))
	f.Add(encode("cell:0123:metrics", bytes.Repeat([]byte{0xAB}, 64)))
	f.Add([]byte("RRS1"))
	f.Add([]byte("RRS1\xff\xff\xff\xff"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, rec []byte) {
		key, val, ok := decode(rec)
		if !ok {
			return
		}
		if re := encode(key, val); !bytes.Equal(re, rec) {
			t.Fatalf("accepted record re-encodes differently:\n in: %x\nout: %x", rec, re)
		}
		if key2, val2, ok := decode(encode(key, val)); !ok || key2 != key || !bytes.Equal(val2, val) {
			t.Fatal("re-encoded record decodes to another key or payload")
		}
	})
}
