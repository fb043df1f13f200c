package jobs

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"rampage/internal/metrics"
)

// DiskStore is the persistent layer behind the in-memory result LRU:
// content-addressed documents as one file per key, so results survive
// restarts and are deduplicated fleet-wide (a worker, the coordinator
// and a restarted coordinator all address the same bytes by the same
// canonical hash). The guarantees a serving cache needs from disk:
//
//   - Crash safety: documents are written to a temp file and published
//     with an atomic rename, so a partially written file is never
//     visible under its final name. Leftover temp files are removed on
//     startup.
//   - Integrity: every file carries a checksum over key and payload; a
//     corrupt or truncated file reads as a miss and is deleted rather
//     than served.
//   - Bounded footprint: a byte budget is enforced by LRU GC — least
//     recently used documents are removed first.
//   - Restart recovery: opening a store over an existing directory
//     re-indexes the files (recency approximated by mtime). Every file
//     is read and checksummed, so a torn or corrupt file is deleted
//     rather than indexed.
//
// All methods are safe for concurrent use.
type DiskStore struct {
	dir    string
	budget int64 // <= 0 means unlimited
	stats  *metrics.ServiceStats

	mu    sync.Mutex
	used  int64
	ll    *list.List // *diskEntry, front = most recently used
	items map[string]*list.Element
}

type diskEntry struct {
	key  string
	size int64 // on-disk file size (header + payload)
}

// File format: magic, little-endian key length, key bytes, SHA-256 of
// (key || payload), payload.
var diskMagic = []byte("RRS1")

const diskHeaderMin = 4 + 4 + sha256.Size

// diskFileExt marks result files; anything else in the directory is
// ignored (temp files are cleaned up on startup).
const diskFileExt = ".res"

// NewDiskStore opens (creating if needed) a store rooted at dir with
// the given byte budget (<= 0 = unlimited). Existing result files are
// re-indexed by modification time; leftover temp files from a crashed
// writer are deleted. stats may be nil.
func NewDiskStore(dir string, budgetBytes int64, stats *metrics.ServiceStats) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: disk store: %w", err)
	}
	s := &DiskStore{
		dir:    dir,
		budget: budgetBytes,
		stats:  stats,
		ll:     list.New(),
		items:  make(map[string]*list.Element),
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// recover re-indexes the directory: result files become entries
// (oldest mtime = least recently used), temp files are removed. Keys
// are read from the file headers, so the index survives any renaming
// scheme change. Unreadable or malformed files are deleted — they
// would read as misses anyway.
func (s *DiskStore) recover() error {
	dirents, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("jobs: disk store: %w", err)
	}
	type found struct {
		key   string
		size  int64
		mtime int64
	}
	var files []found
	for _, de := range dirents {
		if de.IsDir() {
			continue
		}
		path := filepath.Join(s.dir, de.Name())
		if !strings.HasSuffix(de.Name(), diskFileExt) {
			// Temp files (and any other stray name) from a crashed
			// writer: never published, safe to delete.
			if strings.HasPrefix(de.Name(), ".tmp-") {
				os.Remove(path)
			}
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		key, ok := readDiskKey(path)
		if !ok {
			os.Remove(path)
			continue
		}
		files = append(files, found{key: key, size: info.Size(), mtime: info.ModTime().UnixNano()})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime < files[j].mtime })
	for _, f := range files {
		if el, ok := s.items[f.key]; ok {
			// Duplicate key (should not happen): keep the newer file.
			s.used -= el.Value.(*diskEntry).size
			s.ll.Remove(el)
		}
		s.items[f.key] = s.ll.PushFront(&diskEntry{key: f.key, size: f.size})
		s.used += f.size
	}
	s.mu.Lock()
	s.gcLocked()
	s.mu.Unlock()
	return nil
}

// path returns the file name for a key. Keys are hashed into the name
// (they may contain suffixes like ":metrics"); the authoritative key
// lives in the file header.
func (s *DiskStore) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, hex.EncodeToString(sum[:])+diskFileExt)
}

// encodeDisk renders the on-disk representation of (key, val).
func encodeDisk(key string, val []byte) []byte {
	buf := make([]byte, 0, diskHeaderMin+len(key)+len(val))
	buf = append(buf, diskMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
	buf = append(buf, key...)
	h := sha256.New()
	h.Write([]byte(key))
	h.Write(val)
	buf = h.Sum(buf)
	return append(buf, val...)
}

// decodeDisk parses and verifies a file's bytes, returning the payload.
func decodeDisk(key string, raw []byte) ([]byte, bool) {
	gotKey, payload, ok := splitDisk(raw)
	if !ok || gotKey != key {
		return nil, false
	}
	return payload, true
}

// splitDisk parses the header, verifies the checksum and returns
// (key, payload).
func splitDisk(raw []byte) (string, []byte, bool) {
	if len(raw) < diskHeaderMin || !bytes.Equal(raw[:4], diskMagic) {
		return "", nil, false
	}
	klen := int(binary.LittleEndian.Uint32(raw[4:8]))
	if klen < 0 || len(raw) < diskHeaderMin+klen {
		return "", nil, false
	}
	key := string(raw[8 : 8+klen])
	sum := raw[8+klen : 8+klen+sha256.Size]
	payload := raw[8+klen+sha256.Size:]
	h := sha256.New()
	h.Write([]byte(key))
	h.Write(payload)
	if !bytes.Equal(h.Sum(nil), sum) {
		return "", nil, false
	}
	return key, payload, true
}

// readDiskKey extracts the stored key from a file, verifying the full
// checksum (a partially flushed file must not be indexed).
func readDiskKey(path string) (string, bool) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "", false
	}
	key, _, ok := splitDisk(raw)
	return key, ok
}

// Get returns the stored document for a key. A missing, truncated or
// corrupt file is a miss; corrupt files are deleted. Hits count
// SvcDiskHit and refresh recency (in memory and, best-effort, on the
// file's mtime so recovery preserves LRU order).
func (s *DiskStore) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		return nil, false
	}
	path := s.path(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		s.dropLocked(el)
		return nil, false
	}
	val, ok := decodeDisk(key, raw)
	if !ok {
		s.dropLocked(el)
		return nil, false
	}
	s.ll.MoveToFront(el)
	now := time.Now()
	os.Chtimes(path, now, now) // best-effort recency for restart recovery
	s.stats.Add(metrics.SvcDiskHit, 1)
	return val, true
}

// Put stores a document under its content address: temp file in the
// same directory, then an atomic rename, so readers never observe a
// partial write. Re-putting an existing key refreshes recency only
// (content-addressed keys guarantee identical bytes). A value larger
// than the whole budget is not stored.
func (s *DiskStore) Put(key string, val []byte) {
	enc := encodeDisk(key, val)
	size := int64(len(enc))
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.budget > 0 && size > s.budget {
		return
	}
	if el, ok := s.items[key]; ok {
		s.ll.MoveToFront(el)
		return
	}
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return
	}
	if _, err := tmp.Write(enc); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name())
		return
	}
	s.items[key] = s.ll.PushFront(&diskEntry{key: key, size: size})
	s.used += size
	s.stats.Add(metrics.SvcDiskStore, 1)
	s.gcLocked()
}

// gcLocked removes least-recently-used files until the store fits its
// budget. Caller holds the lock.
func (s *DiskStore) gcLocked() {
	for s.budget > 0 && s.used > s.budget && s.ll.Len() > 1 {
		el := s.ll.Back()
		if el == nil {
			return
		}
		s.dropLocked(el)
		s.stats.Add(metrics.SvcDiskEvict, 1)
	}
}

// dropLocked removes an entry and its file. Caller holds the lock.
func (s *DiskStore) dropLocked(el *list.Element) {
	ent := el.Value.(*diskEntry)
	s.ll.Remove(el)
	delete(s.items, ent.key)
	s.used -= ent.size
	os.Remove(s.path(ent.key))
}

// Len returns the number of stored documents.
func (s *DiskStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}

// Bytes returns the on-disk byte total (headers included).
func (s *DiskStore) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used
}

// Dir returns the store's root directory.
func (s *DiskStore) Dir() string { return s.dir }
