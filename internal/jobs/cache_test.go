package jobs

import (
	"fmt"
	"testing"

	"rampage/internal/metrics"
)

func TestCacheGetPut(t *testing.T) {
	c := newResultCache(0, nil, nil) // unlimited
	if _, ok := c.Get("missing"); ok {
		t.Error("empty cache returned a value")
	}
	c.Put("a", []byte("doc-a"))
	if v, ok := c.Get("a"); !ok || string(v) != "doc-a" {
		t.Errorf("Get(a) = (%q, %v)", v, ok)
	}
	if c.Len() != 1 || c.Bytes() != 5 {
		t.Errorf("len=%d bytes=%d", c.Len(), c.Bytes())
	}
	// A re-put keeps the first bytes (the key addresses that content)
	// and refreshes recency: "b" is now the least recently used.
	c = newResultCache(10, nil, nil)
	c.Put("a", []byte("doc-a"))
	c.Put("b", []byte("doc-b"))
	c.Put("a", []byte("doc-A"))
	if c.Len() != 2 || c.Bytes() != 10 {
		t.Errorf("after re-put: len=%d bytes=%d", c.Len(), c.Bytes())
	}
	c.Put("c", []byte("doc-c"))
	if v, ok := c.Get("a"); !ok || string(v) != "doc-a" {
		t.Errorf("re-put key: Get(a) = (%q, %v), want the first bytes", v, ok)
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b survived; the re-put should have made it least recently used")
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	var stats metrics.ServiceStats
	c := newResultCache(30, nil, &stats)
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("k%d", i), make([]byte, 10))
	}
	if c.Len() != 3 {
		t.Fatalf("len = %d, want 3 at budget", c.Len())
	}
	// Touch k0 so k1 becomes least recently used, then overflow.
	c.Get("k0")
	c.Put("k3", make([]byte, 10))
	if _, ok := c.Get("k1"); ok {
		t.Error("LRU entry k1 survived eviction")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("entry %s evicted out of order", k)
		}
	}
	if c.Bytes() != 30 {
		t.Errorf("bytes = %d, want 30", c.Bytes())
	}
	if stats.Get(metrics.SvcCacheEvict) != 1 {
		t.Errorf("evictions = %d, want 1", stats.Get(metrics.SvcCacheEvict))
	}
}

func TestCacheRejectsOverBudgetValue(t *testing.T) {
	c := newResultCache(10, nil, nil)
	c.Put("small", make([]byte, 4))
	c.Put("huge", make([]byte, 64))
	if _, ok := c.Get("huge"); ok {
		t.Error("over-budget value was stored")
	}
	if _, ok := c.Get("small"); !ok {
		t.Error("over-budget Put evicted the resident entry")
	}
}

func TestCacheKeepsNewestWhenBudgetTight(t *testing.T) {
	c := newResultCache(10, nil, nil)
	c.Put("a", make([]byte, 8))
	c.Put("b", make([]byte, 9))
	if _, ok := c.Get("a"); ok {
		t.Error("old entry survived a displacing insert")
	}
	if _, ok := c.Get("b"); !ok {
		t.Error("new entry displaced instead of old")
	}
}
