package checkpoint

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"rampage/internal/cas"
	"rampage/internal/metrics"
)

// Store is the checkpoint namespace of the content-addressed store
// (internal/cas): a memory tier with a resident-byte budget over an
// optional disk tier that every Put writes through to. Entries are
// addressed by (warm-up prefix hash, reference count, finality);
// lookups ask for the newest checkpoint dominating a target reference
// budget. An in-memory index of every stored checkpoint's Meta, keyed
// by prefix, answers those dominance questions, so choosing a
// checkpoint parses no keys, reads no disk and looks only at its own
// prefix's checkpoints; Nearest reads only the one it chose. It is
// safe for concurrent use — sweep cells share one store.
type Store struct {
	chain *cas.Store
	svc   *metrics.ServiceStats

	mu sync.Mutex
	// metas maps prefix -> record key -> Meta; it may name keys the
	// chain has since evicted.
	metas map[string]map[string]Meta
}

// NewStore returns a store with the given resident-byte budget
// (<= 0 = unlimited) over a disk tier in dir ("" = none: evictions are
// dropped). The directory is created if needed, and the checkpoints
// already in it are re-indexed, so they survive a restart. svc may be
// nil; when set, the store counts hits, misses and evictions on it.
func NewStore(budgetBytes int64, dir string, svc *metrics.ServiceStats) (*Store, error) {
	s := &Store{svc: svc, metas: make(map[string]map[string]Meta)}
	var disk *cas.Store
	if dir != "" {
		var err error
		if disk, err = cas.Open(dir, ".ckpt", 0, cas.Counters{}); err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		for _, key := range disk.Keys() {
			if m, ok := parseKey(key); ok {
				s.indexLocked(key, m)
			}
		}
	}
	s.chain = cas.NewMemory(budgetBytes, disk, cas.Counters{Evict: svc.Counter(metrics.SvcCkptEvict)})
	return s, nil
}

// entryKey addresses one checkpoint within the store.
func entryKey(m Meta) string {
	return fmt.Sprintf("%s@%d/%t", m.Prefix, m.Refs, m.Final)
}

// parseKey inverts entryKey, refusing any key entryKey would not
// produce.
func parseKey(key string) (Meta, bool) {
	at, slash := strings.LastIndexByte(key, '@'), strings.LastIndexByte(key, '/')
	if at < 0 || slash < at {
		return Meta{}, false
	}
	refs, err := strconv.ParseUint(key[at+1:slash], 10, 64)
	if err != nil {
		return Meta{}, false
	}
	m := Meta{Prefix: key[:at], Refs: refs, Final: key[slash+1:] == "true"}
	return m, entryKey(m) == key
}

// indexLocked records a stored checkpoint's Meta. Caller holds s.mu
// (or owns s exclusively).
func (s *Store) indexLocked(key string, m Meta) {
	byKey := s.metas[m.Prefix]
	if byKey == nil {
		byKey = make(map[string]Meta)
		s.metas[m.Prefix] = byKey
	}
	byKey[key] = m
}

// forgetLocked drops a checkpoint from the index. Caller holds s.mu.
func (s *Store) forgetLocked(prefix, key string) {
	byKey := s.metas[prefix]
	delete(byKey, key)
	if len(byKey) == 0 {
		delete(s.metas, prefix)
	}
}

// Put stores a checkpoint. Re-putting an existing (prefix, refs,
// final) address refreshes its recency and keeps the first bytes —
// checkpoints are deterministic, so the payloads are identical.
func (s *Store) Put(c *Checkpoint) {
	key := entryKey(c.Meta)
	s.chain.Put(key, c.Encode())
	if s.chain.Has(key) {
		s.mu.Lock()
		s.indexLocked(key, c.Meta)
		s.mu.Unlock()
	}
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

// bestLocked picks the stored checkpoint that best serves maxRefs
// under prefix: a complete answer when one exists, otherwise the
// resumable checkpoint with the most references already executed.
// Checkpoints the chain no longer holds are forgotten on the way.
// Caller holds s.mu.
func (s *Store) bestLocked(prefix string, maxRefs uint64) (key string, best Meta, complete, ok bool) {
	for k, m := range s.metas[prefix] {
		comp, res := usable(m, maxRefs)
		if !comp && !res {
			continue
		}
		if !s.chain.Has(k) {
			s.forgetLocked(prefix, k)
			continue
		}
		if !ok || (comp && !complete) || (comp == complete && m.Refs > best.Refs) {
			key, best, complete, ok = k, m, comp, true
		}
	}
	return key, best, complete, ok
}

// Nearest returns the best stored checkpoint for reaching maxRefs
// references under the given warm-up prefix: a complete answer when
// one exists, otherwise the resumable checkpoint with the most
// references already executed. ok is false when nothing helps (a cold
// run is required) — including when the chosen checkpoint's record
// turns out to be missing or corrupt, which is then forgotten.
func (s *Store) Nearest(prefix string, maxRefs uint64) (c *Checkpoint, complete bool, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key, _, complete, ok := s.bestLocked(prefix, maxRefs)
	if ok {
		var enc []byte
		if enc, ok = s.chain.Get(key); ok {
			if ck, err := Decode(enc); err == nil {
				s.svc.Add(metrics.SvcCkptHit, 1)
				return ck, complete, true
			}
		}
		s.forgetLocked(prefix, key)
	}
	s.svc.Add(metrics.SvcCkptMiss, 1)
	return nil, false, false
}

// Peek reports whether a checkpoint usable for reaching maxRefs exists
// under the prefix, and how warm it is, without loading bytes, touching
// recency or counting a hit or miss. Sweep planners use it to order
// cells; the answer is advisory — a concurrent eviction can invalidate
// it before Nearest runs.
func (s *Store) Peek(prefix string, maxRefs uint64) (refs uint64, complete, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, best, complete, ok := s.bestLocked(prefix, maxRefs)
	return best.Refs, complete, ok
}

// Len returns the number of stored checkpoints, in memory or on disk.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for prefix, byKey := range s.metas {
		for k := range byKey {
			if !s.chain.Has(k) {
				s.forgetLocked(prefix, k)
			}
		}
		n += len(byKey)
	}
	return n
}

// Bytes returns the resident (in-memory) byte total.
func (s *Store) Bytes() int64 { return s.chain.Bytes() }
