package checkpoint

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"rampage/internal/metrics"
)

// Store is a content-addressed checkpoint store: an in-memory
// byte-budget LRU with optional disk spill. Entries are addressed by
// (warm-up prefix hash, reference count, finality); lookups ask for
// the newest checkpoint dominating a target reference budget. It is
// safe for concurrent use — sweep cells share one store.
type Store struct {
	mu      sync.Mutex
	budget  int64      // resident-byte budget; <= 0 means unlimited
	bytes   int64      // resident bytes
	ll      *list.List // *entry, front = most recently used
	entries map[string]*entry
	dir     string // spill directory; "" disables spilling
	svc     *metrics.ServiceStats
}

// entry is one stored checkpoint. Metadata stays in memory even when
// the encoded bytes have been spilled to disk, so dominance lookups
// never touch the filesystem.
type entry struct {
	key  string
	meta Meta
	mem  []byte        // encoded checkpoint; nil when spilled
	path string        // spill file; "" when resident only
	elem *list.Element // non-nil while resident in the LRU
}

// NewStore returns a store with the given resident-byte budget
// (<= 0 = unlimited) and spill directory ("" = evictions are dropped
// instead of spilled). svc may be nil; when set, the store counts
// hits, misses and evictions on it.
//
// A store owns its spill directory. The index that addresses spill
// files lives only in memory, so files an earlier store left behind
// can never be found again: opening the directory removes every
// *.ckpt spill file and *.ckpt.tmp torn write in it.
func NewStore(budgetBytes int64, dir string, svc *metrics.ServiceStats) *Store {
	if dir != "" {
		entries, _ := os.ReadDir(dir)
		for _, e := range entries {
			name := e.Name()
			if !e.IsDir() && (strings.HasSuffix(name, ".ckpt") || strings.HasSuffix(name, ".ckpt.tmp")) {
				os.Remove(filepath.Join(dir, name))
			}
		}
	}
	return &Store{
		budget:  budgetBytes,
		ll:      list.New(),
		entries: make(map[string]*entry),
		dir:     dir,
		svc:     svc,
	}
}

// entryKey addresses one checkpoint within the store.
func entryKey(m Meta) string {
	return fmt.Sprintf("%s@%d/%t", m.Prefix, m.Refs, m.Final)
}

// Put stores a checkpoint. Re-putting an existing (prefix, refs,
// final) address refreshes its recency and keeps the first bytes —
// checkpoints are deterministic, so the payloads are identical.
func (s *Store) Put(c *Checkpoint) {
	enc := c.Encode()
	s.mu.Lock()
	defer s.mu.Unlock()
	key := entryKey(c.Meta)
	if e, ok := s.entries[key]; ok {
		if e.elem != nil {
			s.ll.MoveToFront(e.elem)
		}
		return
	}
	e := &entry{key: key, meta: c.Meta, mem: enc}
	if s.budget > 0 && int64(len(enc)) > s.budget {
		// Larger than the whole budget: straight to disk, or refuse.
		// Once spilled the bytes live only on disk, like any evictee.
		if s.dir != "" && s.spill(e) {
			e.mem = nil
			s.entries[key] = e
		}
		return
	}
	s.entries[key] = e
	e.elem = s.ll.PushFront(e)
	s.bytes += int64(len(enc))
	s.evictOver()
}

// evictOver spills or drops least-recently-used residents until the
// resident bytes fit the budget. Caller holds the lock.
func (s *Store) evictOver() {
	for s.budget > 0 && s.bytes > s.budget {
		back := s.ll.Back()
		if back == nil {
			return
		}
		e := back.Value.(*entry)
		s.ll.Remove(back)
		s.bytes -= int64(len(e.mem))
		e.elem = nil
		s.svc.Add(metrics.SvcCkptEvict, 1)
		if s.dir != "" && e.path == "" && s.spill(e) {
			e.mem = nil
			continue
		}
		if e.path == "" {
			delete(s.entries, e.key) // nowhere to spill: dropped
		} else {
			e.mem = nil // already on disk
		}
	}
}

// spill writes an entry's encoded bytes to the spill directory,
// reporting success. Failures leave the entry unspilled.
func (s *Store) spill(e *entry) bool {
	sum := sha256.Sum256([]byte(e.key))
	path := filepath.Join(s.dir, hex.EncodeToString(sum[:16])+".ckpt")
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, e.mem, 0o644); err != nil {
		return false
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return false
	}
	e.path = path
	return true
}

// usable classifies a stored checkpoint against a target reference
// budget (0 = run to end of workload):
//
//   - complete: restoring it IS the finished run. A final checkpoint
//     strictly below the budget qualifies (the from-scratch run would
//     have drained the workload, end-of-stream switch traces and all,
//     before reaching the budget); so does a non-final checkpoint at
//     exactly the budget (both stop at the budget check before any
//     end-of-stream handling). A final checkpoint at exactly the
//     budget does NOT qualify: the budgeted run stops before executing
//     the end-of-stream context switches the final state contains.
//   - resume: restoring it and running on reaches the target.
func usable(m Meta, maxRefs uint64) (complete, resume bool) {
	if maxRefs == 0 {
		if m.Final {
			return true, false
		}
		return false, true
	}
	if m.Final {
		return m.Refs < maxRefs, false
	}
	if m.Refs == maxRefs {
		return true, false
	}
	return false, m.Refs < maxRefs
}

// Nearest returns the best stored checkpoint for reaching maxRefs
// references under the given warm-up prefix: a complete answer when
// one exists, otherwise the resumable checkpoint with the most
// references already executed. ok is false when nothing helps (a cold
// run is required).
func (s *Store) Nearest(prefix string, maxRefs uint64) (c *Checkpoint, complete bool, ok bool) {
	s.mu.Lock()
	var best *entry
	var bestComplete bool
	for _, e := range s.entries {
		comp, res := usable(e.meta, maxRefs)
		if e.meta.Prefix != prefix || (!comp && !res) {
			continue
		}
		if best == nil ||
			(comp && !bestComplete) ||
			(comp == bestComplete && e.meta.Refs > best.meta.Refs) {
			best, bestComplete = e, comp
		}
	}
	if best == nil {
		s.mu.Unlock()
		s.svc.Add(metrics.SvcCkptMiss, 1)
		return nil, false, false
	}
	enc, err := s.load(best)
	s.mu.Unlock()
	if err != nil {
		s.svc.Add(metrics.SvcCkptMiss, 1)
		return nil, false, false
	}
	ck, err := Decode(enc)
	if err != nil {
		s.mu.Lock()
		s.drop(best)
		s.mu.Unlock()
		s.svc.Add(metrics.SvcCkptMiss, 1)
		return nil, false, false
	}
	s.svc.Add(metrics.SvcCkptHit, 1)
	return ck, bestComplete, true
}

// load returns an entry's encoded bytes, reading them back from the
// spill file and re-admitting them to the resident LRU when needed.
// Caller holds the lock.
func (s *Store) load(e *entry) ([]byte, error) {
	if e.mem != nil {
		if e.elem != nil {
			s.ll.MoveToFront(e.elem)
		}
		return e.mem, nil
	}
	enc, err := os.ReadFile(e.path)
	if err != nil {
		s.drop(e)
		return nil, err
	}
	if s.budget <= 0 || int64(len(enc)) <= s.budget {
		e.mem = enc
		e.elem = s.ll.PushFront(e)
		s.bytes += int64(len(enc))
		s.evictOver()
	}
	return enc, nil
}

// drop removes an entry entirely. Caller holds the lock.
func (s *Store) drop(e *entry) {
	if e.elem != nil {
		s.ll.Remove(e.elem)
		s.bytes -= int64(len(e.mem))
		e.elem = nil
	}
	delete(s.entries, e.key)
	if e.path != "" {
		os.Remove(e.path)
	}
}

// Peek reports whether a checkpoint usable for reaching maxRefs exists
// under the prefix, and how warm it is, without loading bytes, touching
// recency or counting a hit or miss. Sweep planners use it to order
// cells; the answer is advisory — a concurrent eviction can invalidate
// it before Nearest runs.
func (s *Store) Peek(prefix string, maxRefs uint64) (refs uint64, complete, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.entries {
		if e.meta.Prefix != prefix {
			continue
		}
		comp, res := usable(e.meta, maxRefs)
		if !comp && !res {
			continue
		}
		if !ok || (comp && !complete) || (comp == complete && e.meta.Refs > refs) {
			refs, complete, ok = e.meta.Refs, comp, true
		}
	}
	return refs, complete, ok
}

// Len returns the number of stored checkpoints (resident + spilled).
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Bytes returns the resident (in-memory) byte total.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}
