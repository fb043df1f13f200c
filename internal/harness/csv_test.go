package harness

import (
	"bytes"
	"context"
	"encoding/csv"
	"strconv"
	"strings"
	"testing"
)

func TestWriteSweepCSV(t *testing.T) {
	cfg := tinyConfig()
	rates := []uint64{200, 4000}
	sizes := []uint64{512, 2048}
	grid, err := SweepSpec(context.Background(), cfg, RunSpec{System: RAMpage}, rates, sizes)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSweepCSV(&buf, rates, sizes, grid); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("output is not valid CSV: %v", err)
	}
	if len(records) != 1+len(rates)*len(sizes) {
		t.Fatalf("got %d rows, want %d", len(records), 1+len(rates)*len(sizes))
	}
	header := records[0]
	if header[0] != "system" || header[3] != "seconds" {
		t.Errorf("header unexpected: %v", header)
	}
	idx := func(name string) int {
		for i, h := range header {
			if h == name {
				return i
			}
		}
		t.Fatalf("column %q missing", name)
		return -1
	}
	for _, row := range records[1:] {
		if row[idx("system")] != "rampage" {
			t.Errorf("system = %q", row[0])
		}
		secs, err := strconv.ParseFloat(row[idx("seconds")], 64)
		if err != nil || secs <= 0 {
			t.Errorf("bad seconds %q", row[idx("seconds")])
		}
		// Level fractions must sum to <= 1.
		var sum float64
		for _, col := range []string{"frac_l1i", "frac_l1d", "frac_l2", "frac_dram"} {
			f, err := strconv.ParseFloat(row[idx(col)], 64)
			if err != nil || f < 0 || f > 1 {
				t.Errorf("bad fraction %q in %s", row[idx(col)], col)
			}
			sum += f
		}
		if sum > 1.000001 {
			t.Errorf("level fractions sum to %f > 1", sum)
		}
	}
	// Rows must cover the full grid in order.
	if records[1][idx("issue_mhz")] != "200" || records[1][idx("size_bytes")] != "512" {
		t.Errorf("first data row = %v", records[1])
	}
	last := records[len(records)-1]
	if last[idx("issue_mhz")] != "4000" || last[idx("size_bytes")] != "2048" {
		t.Errorf("last data row = %v", last)
	}
	_ = strings.TrimSpace("")
}
