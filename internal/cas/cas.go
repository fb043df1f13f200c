// Package cas is the content-addressed store behind the experiment
// service: served result documents and warm-state checkpoints are two
// namespaces of its one Store type. Keys are canonical content
// addresses (harness.RunKey, ExperimentKey and CellKey, a checkpoint's
// prefix and reference count), so the bytes stored under a key never change and any tier
// may answer for any other.
//
// A Store is one tier of a byte-budget LRU:
//
//   - A memory tier (NewMemory) holds the caller's bytes as given.
//   - A disk tier (Open) holds one checksummed record file per key.
//
// A memory tier may sit over a disk tier: Get falls through to disk
// and promotes the hit into memory, and Put writes through to both.
//
// Every disk tier shares one record format, one crash-safe write and
// one restart re-index:
//
//   - Record: the magic "RRS1", the key length as a little-endian
//     uint32, the key, the SHA-256 of key and payload, then the
//     payload. The file is named hex(SHA-256(key)) plus the
//     namespace's extension.
//   - Write: a temp file in the same directory, published by an atomic
//     rename, so a partial record is never visible under its final
//     name.
//   - Read: a missing, truncated or corrupt record, or one holding
//     another key, is a miss, and its file is deleted.
//   - Re-index: opening a directory reads and checksums every record
//     of the namespace, deletes the ones that fail or sit under
//     another key's name, and orders the rest by modification time,
//     which hits refresh. It also deletes the temp files a crashed
//     writer left. Stores that share a directory must therefore all be
//     open before any of them writes.
//
// All methods are safe for concurrent use. Get, Put and Has are also
// safe on a nil *Store, which holds nothing.
package cas

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

// Counters binds a tier's events to service counters. A zero Counter
// counts nothing.
type Counters struct {
	// Hit counts a Get this tier answered.
	Hit metrics.Counter
	// Store counts a record written (disk tiers only).
	Store metrics.Counter
	// Evict counts an entry pushed out by the byte budget.
	Evict metrics.Counter
}

// Store is one tier of the content-addressed store.
type Store struct {
	budget int64  // <= 0 means unlimited
	dir    string // "" for a memory tier
	ext    string // record file extension (disk tiers)
	next   *Store // the tier below a memory tier; nil for none
	count  Counters

	mu    sync.Mutex
	used  int64
	ll    *list.List // *entry, front = most recently used
	items map[string]*list.Element
}

type entry struct {
	key  string
	val  []byte // the caller's bytes; nil on disk
	size int64  // len(val) in memory, the record's length on disk
}

func newStore(budget int64, c Counters) *Store {
	return &Store{budget: budget, count: c, ll: list.New(), items: make(map[string]*list.Element)}
}

// NewMemory returns a memory tier that evicts least-recently-used
// entries once its bytes exceed budget (<= 0 = unlimited). next, when
// non-nil, is the tier below it.
func NewMemory(budget int64, next *Store, c Counters) *Store {
	s := newStore(budget, c)
	s.next = next
	return s
}

// Open opens a disk tier rooted at dir, creating the directory if
// needed, whose records carry the file extension ext (".res" for
// results, ".ckpt" for checkpoints). Records already in dir are
// re-indexed and held to budget (<= 0 = unlimited); files of other
// namespaces are left alone.
func Open(dir, ext string, budget int64, c Counters) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cas: %w", err)
	}
	s := newStore(budget, c)
	s.dir, s.ext = dir, ext
	if err := s.reindex(); err != nil {
		return nil, err
	}
	return s, nil
}

// recordHeader is the fixed part of a record: magic, key length and
// checksum.
const recordHeader = 4 + 4 + sha256.Size

var recordMagic = []byte("RRS1")

// encode renders the record for (key, val).
func encode(key string, val []byte) []byte {
	rec := make([]byte, 0, recordHeader+len(key)+len(val))
	rec = append(rec, recordMagic...)
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(key)))
	rec = append(rec, key...)
	h := sha256.New()
	h.Write([]byte(key))
	h.Write(val)
	rec = h.Sum(rec)
	return append(rec, val...)
}

// decode splits a record into key and payload, verifying its checksum.
func decode(rec []byte) (key string, val []byte, ok bool) {
	if len(rec) < recordHeader || !bytes.Equal(rec[:4], recordMagic) {
		return "", nil, false
	}
	klen := binary.LittleEndian.Uint32(rec[4:8])
	if uint64(klen) > uint64(len(rec)-recordHeader) {
		return "", nil, false
	}
	k := rec[8 : 8+klen]
	sum := rec[8+klen : 8+klen+sha256.Size]
	val = rec[8+klen+sha256.Size:]
	h := sha256.New()
	h.Write(k)
	h.Write(val)
	if !bytes.Equal(h.Sum(nil), sum) {
		return "", nil, false
	}
	return string(k), val, true
}

// path names the record file of a key. Keys may hold any bytes, so
// the name is their hash; the record itself carries the key.
func (s *Store) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, hex.EncodeToString(sum[:])+s.ext)
}

// reindex rebuilds a disk tier's index from its directory.
func (s *Store) reindex() error {
	dirents, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("cas: %w", err)
	}
	type found struct {
		key   string
		size  int64
		mtime time.Time
	}
	var files []found
	for _, de := range dirents {
		name := de.Name()
		path := filepath.Join(s.dir, name)
		switch {
		case de.IsDir():
		case strings.HasPrefix(name, ".tmp-") || strings.HasSuffix(name, s.ext+".tmp"):
			// A crashed writer's temp file (this writer's pattern, or
			// <name><ext>.tmp from older checkpoint spills): never
			// published, so safe to delete.
			os.Remove(path)
		case strings.HasSuffix(name, s.ext):
			info, err := de.Info()
			if err != nil {
				continue
			}
			rec, err := os.ReadFile(path)
			if err != nil {
				continue
			}
			key, _, ok := decode(rec)
			if !ok || s.path(key) != path {
				os.Remove(path)
				continue
			}
			files = append(files, found{key, info.Size(), info.ModTime()})
		}
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, f := range files {
		s.items[f.key] = s.ll.PushFront(&entry{key: f.key, size: f.size})
		s.used += f.size
	}
	s.gcLocked()
	return nil
}

// Get returns the bytes stored under key, from this tier or, in a
// memory tier, from the tier below, whose hit is promoted into memory.
// Callers must not modify the returned bytes.
func (s *Store) Get(key string) ([]byte, bool) {
	if s == nil {
		return nil, false
	}
	if val, ok := s.get(key); ok {
		s.count.Hit.Add(1)
		return val, true
	}
	val, ok := s.next.Get(key)
	if ok {
		s.add(key, val)
	}
	return val, ok
}

// get looks key up in this tier alone.
func (s *Store) get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		return nil, false
	}
	if s.dir == "" {
		s.ll.MoveToFront(el)
		return el.Value.(*entry).val, true
	}
	path := s.path(key)
	rec, err := os.ReadFile(path)
	if err != nil {
		s.dropLocked(el)
		return nil, false
	}
	got, val, ok := decode(rec)
	if !ok || got != key {
		s.dropLocked(el)
		return nil, false
	}
	s.ll.MoveToFront(el)
	now := time.Now()
	os.Chtimes(path, now, now) // best effort: the re-index orders by mtime
	return val, true
}

// Put stores val under key in this tier and every tier below it. A key
// already stored keeps its first bytes and only refreshes its recency:
// content-addressed keys guarantee identical bytes. A value larger than
// a tier's whole budget is not stored in that tier. Callers must not
// modify val after handing it over.
func (s *Store) Put(key string, val []byte) {
	if s == nil {
		return
	}
	s.add(key, val)
	s.next.Put(key, val)
}

// add stores val under key in this tier alone.
func (s *Store) add(key string, val []byte) {
	size := int64(len(val))
	var rec []byte
	if s.dir != "" {
		rec = encode(key, val)
		size = int64(len(rec))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.budget > 0 && size > s.budget {
		return
	}
	if el, ok := s.items[key]; ok {
		s.ll.MoveToFront(el)
		return
	}
	e := &entry{key: key, val: val, size: size}
	if s.dir != "" {
		if !s.write(key, rec) {
			return
		}
		e.val = nil
		s.count.Store.Add(1)
	}
	s.items[key] = s.ll.PushFront(e)
	s.used += size
	s.gcLocked()
}

// write publishes a record under its final name: temp file, then an
// atomic rename. Caller holds the lock.
func (s *Store) write(key string, rec []byte) bool {
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return false
	}
	_, err = tmp.Write(rec)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), s.path(key))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return false
	}
	return true
}

// gcLocked evicts least-recently-used entries until the tier fits its
// budget. Caller holds the lock.
func (s *Store) gcLocked() {
	for s.budget > 0 && s.used > s.budget && s.ll.Len() > 1 {
		s.dropLocked(s.ll.Back())
		s.count.Evict.Add(1)
	}
}

// dropLocked removes an entry, and its record on disk. Caller holds
// the lock.
func (s *Store) dropLocked(el *list.Element) {
	e := s.ll.Remove(el).(*entry)
	delete(s.items, e.key)
	s.used -= e.size
	if s.dir != "" {
		os.Remove(s.path(e.key))
	}
}

// Has reports whether this tier or a tier below it holds key, without
// reading it or touching its recency.
func (s *Store) Has(key string) bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	_, ok := s.items[key]
	s.mu.Unlock()
	return ok || s.next.Has(key)
}

// Keys returns the keys this tier holds, least recently used first.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, s.ll.Len())
	for el := s.ll.Back(); el != nil; el = el.Prev() {
		keys = append(keys, el.Value.(*entry).key)
	}
	return keys
}

// Len returns the number of entries in this tier.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}

// Bytes returns this tier's byte total: values in memory, whole
// records on disk.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used
}
