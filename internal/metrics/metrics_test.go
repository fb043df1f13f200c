package metrics

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestEventStrings(t *testing.T) {
	seen := make(map[string]Event)
	for e := Event(0); e < NumEvents; e++ {
		s := e.String()
		if s == "unknown" || s == "" {
			t.Errorf("event %d has no name", e)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("events %d and %d share the name %q", prev, e, s)
		}
		seen[s] = e
	}
	if NumEvents.String() != "unknown" {
		t.Errorf("NumEvents.String() = %q, want unknown", NumEvents.String())
	}
}

func TestCollectorCounts(t *testing.T) {
	c := NewCollector(0)
	c.Count(EvTLBHit, 3)
	c.Count(EvTLBHit, 2)
	c.Count(EvTLBMiss, 1)
	counts := c.Counts()
	if counts[EvTLBHit] != 5 || counts[EvTLBMiss] != 1 {
		t.Errorf("counts = hit %d, miss %d; want 5, 1", counts[EvTLBHit], counts[EvTLBMiss])
	}
}

func TestHistogramBuckets(t *testing.T) {
	c := NewCollector(0)
	// Bucket index is bits.Len64(v): 0 -> 0, 1 -> 1, 2..3 -> 2, 4..7 -> 3.
	for _, v := range []uint64{0, 1, 2, 3, 4, 7, 1 << 40} {
		c.Observe(EvPTProbes, v)
	}
	h := c.Hist(EvPTProbes)
	if h.Count != 7 {
		t.Fatalf("Count = %d, want 7", h.Count)
	}
	if h.Min != 0 || h.Max != 1<<40 {
		t.Errorf("Min/Max = %d/%d, want 0/%d", h.Min, h.Max, uint64(1)<<40)
	}
	if h.Sum != 0+1+2+3+4+7+1<<40 {
		t.Errorf("Sum = %d", h.Sum)
	}
	want := map[int]uint64{0: 1, 1: 1, 2: 2, 3: 2, 41: 1}
	for i, n := range h.Buckets {
		if n != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, n, want[i])
		}
	}
	if got := h.Mean(); got != float64(h.Sum)/7 {
		t.Errorf("Mean = %v", got)
	}
}

func TestSnapshots(t *testing.T) {
	c := NewCollector(100)
	c.Count(EvPageFault, 1)
	c.Tick(50) // before the first boundary: nothing
	if len(c.Snapshots()) != 0 {
		t.Fatalf("premature snapshot")
	}
	c.Tick(100)
	c.Count(EvPageFault, 2)
	c.Tick(120) // same interval: nothing
	c.Tick(350) // jumped two boundaries: one catch-up snapshot
	snaps := c.Snapshots()
	if len(snaps) != 2 {
		t.Fatalf("got %d snapshots, want 2", len(snaps))
	}
	if snaps[0].Now != 100 || snaps[0].Counts[EvPageFault] != 1 {
		t.Errorf("snapshot 0 = %+v", snaps[0])
	}
	if snaps[1].Now != 350 || snaps[1].Counts[EvPageFault] != 3 {
		t.Errorf("snapshot 1 = %+v", snaps[1])
	}
	// The next boundary must be past the last tick.
	c.Tick(399)
	if len(c.Snapshots()) != 2 {
		t.Errorf("tick inside the caught-up interval recorded a snapshot")
	}
}

// TestSnapshotsSkipped pins the skipped-interval count: one tick that
// passes five interval boundaries cuts one snapshot and reports the
// other four as skipped, in the collector and in its JSON summary, and
// a run that skips none leaves the field out of the summary.
func TestSnapshotsSkipped(t *testing.T) {
	c := NewCollector(10)
	c.Tick(50)
	if n := len(c.Snapshots()); n != 1 {
		t.Fatalf("got %d snapshots, want 1", n)
	}
	if got := c.SnapshotsSkipped(); got != 4 {
		t.Errorf("skipped = %d, want 4", got)
	}
	c.Tick(60) // the next boundary alone: nothing more skipped
	if got := c.SnapshotsSkipped(); got != 4 {
		t.Errorf("skipped after a one-boundary tick = %d, want 4", got)
	}
	b, err := json.Marshal(c.Summary())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"snapshots_skipped":4`) {
		t.Errorf("summary %s does not report the 4 skipped intervals", b)
	}
	steady := NewCollector(10)
	steady.Tick(10)
	steady.Tick(25)
	if b, _ := json.Marshal(steady.Summary()); strings.Contains(string(b), "snapshots_skipped") {
		t.Errorf("a run that skipped no interval reports the field: %s", b)
	}
}

func TestSnapshotBound(t *testing.T) {
	c := NewCollector(1)
	for now := uint64(1); now <= DefaultMaxSnapshots+10; now++ {
		c.Tick(now)
	}
	if got := len(c.Snapshots()); got != DefaultMaxSnapshots {
		t.Errorf("stored %d snapshots, want cap %d", got, DefaultMaxSnapshots)
	}
	if c.SnapshotsDropped() != 10 {
		t.Errorf("dropped = %d, want 10", c.SnapshotsDropped())
	}
}

// TestProbesDoNotAllocate pins the Collector's hot-path contract: an
// attached observer must not add allocations to the simulator loops.
func TestProbesDoNotAllocate(t *testing.T) {
	c := NewCollector(1000)
	var obs Observer = c // through the interface, as the simulator calls it
	var now uint64
	allocs := testing.AllocsPerRun(100, func() {
		now += 100
		obs.Count(EvTLBHit, 1)
		obs.Observe(EvDRAMTransfer, 4096)
		obs.Tick(now)
	})
	if allocs != 0 {
		t.Errorf("probe path allocates %.1f times per round", allocs)
	}
}

func TestSummaryShape(t *testing.T) {
	c := NewCollector(10)
	c.Count(EvTLBHit, 7)
	c.Observe(EvDRAMTransfer, 4096)
	c.Tick(10)
	s := c.Summary()
	if s.Counts["tlb_hit"] != 7 {
		t.Errorf("summary counts = %v", s.Counts)
	}
	if _, ok := s.Counts["tlb_miss"]; ok {
		t.Error("zero-count event present in summary")
	}
	h, ok := s.Histograms["dram_transfer"]
	if !ok || h.Count != 1 || h.Buckets["4096-8191"] != 1 {
		t.Errorf("summary histogram = %+v", h)
	}
	if len(s.Snapshots) != 1 {
		t.Errorf("summary snapshots = %d, want 1", len(s.Snapshots))
	}
	if _, err := json.Marshal(s); err != nil {
		t.Errorf("summary does not marshal: %v", err)
	}
}

func TestBucketLabels(t *testing.T) {
	for i, want := range map[int]string{0: "0", 1: "1", 2: "2-3", 3: "4-7", 13: "4096-8191"} {
		if got := bucketLabel(i); got != want {
			t.Errorf("bucketLabel(%d) = %q, want %q", i, got, want)
		}
	}
}
