package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"rampage/internal/harness"
)

var workloadNames = []string{"sweep", "runs", "service"}

func mustPlan(t *testing.T, name string, seed uint64) plan {
	t.Helper()
	p, err := newPlan(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func bodies(p plan) [][]byte {
	out := append([][]byte(nil), p.fill...)
	for _, c := range p.cold {
		out = append(out, c.body)
		for _, w := range c.warm {
			out = append(out, w.body)
		}
	}
	return out
}

func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, b := bodies(mustPlan(t, name, 7)), bodies(mustPlan(t, name, 7))
		if len(a) != len(b) {
			t.Fatalf("%s: two plans of seed 7 have %d and %d requests", name, len(a), len(b))
		}
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: request %d differs between two plans of seed 7", name, i)
			}
		}
		if bytes.Equal(mustPlan(t, name, 8).cold[0].body, mustPlan(t, name, 7).cold[0].body) {
			t.Errorf("%s: seeds 7 and 8 produce the same first cold request", name)
		}
	}
	if _, err := newPlan("fleet", 1); err == nil {
		t.Error("an unknown workload has a plan")
	}
}

func TestServiceSeedsAreDisjoint(t *testing.T) {
	seen := map[uint64]string{}
	claim := func(seed uint64, who string) {
		if prev, ok := seen[seed]; ok {
			t.Fatalf("seed %d used by %s and %s", seed, prev, who)
		}
		seen[seed] = who
	}
	for _, run := range []uint64{0, 1, 42} {
		p := mustPlan(t, "service", run)
		for _, body := range p.fill {
			var req struct {
				Seed uint64 `json:"seed"`
			}
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatal(err)
			}
			claim(req.Seed, "fill")
		}
		for i, c := range p.cold {
			claim(c.seed, "cold")
			var req struct {
				Seed uint64 `json:"seed"`
			}
			if err := json.Unmarshal(c.body, &req); err != nil || req.Seed != c.seed {
				t.Errorf("cold request %d carries seed %d (%v), want %d", i, req.Seed, err, c.seed)
			}
		}
		if p.seed != p.cold[0].seed {
			t.Errorf("service plan probes seed %d, its first cold request has %d", p.seed, p.cold[0].seed)
		}
	}
}

// cellSet lists a request's cells as seed/system@MHz/bytes.
func cellSet(t *testing.T, r request) []string {
	t.Helper()
	if r.run != nil {
		return []string{fmt.Sprintf("%d/%s", r.seed, specLabel(r.run.spec))}
	}
	sh, err := harness.ShapeOf(r.exp.id, r.exp.rates, r.exp.sizes)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, spec := range sh.CellSpecs() {
		out = append(out, fmt.Sprintf("%d/%s", r.seed, specLabel(spec)))
	}
	return out
}

// TestPlanTiers checks what the tiers rely on: no cell is in two cold
// requests of a round (each would restore the other's checkpoint),
// every warm cell is a cell of its own cold request, and a round has
// warm requests.
func TestPlanTiers(t *testing.T) {
	for _, name := range workloadNames {
		p := mustPlan(t, name, 42)
		warm := 0
		for _, c := range p.cold {
			warm += len(c.warm)
		}
		if warm == 0 {
			t.Errorf("%s: a round has no warm request", name)
		}
		owner := map[string]int{}
		for i, c := range p.cold {
			for _, cell := range cellSet(t, c) {
				if j, ok := owner[cell]; ok {
					t.Errorf("%s: cell %s is in cold requests %d and %d", name, cell, j, i)
				}
				owner[cell] = i
			}
			for _, w := range c.warm {
				for _, cell := range cellSet(t, w) {
					if owner[cell] != i {
						t.Errorf("%s: warm cell %s is not a cell of cold request %d", name, cell, i)
					}
				}
			}
		}
	}
}

// TestColumnarPointsAreSweepCells keeps the columnar probe checkable:
// on the sweep workload each probed point is a served cold cell.
func TestColumnarPointsAreSweepCells(t *testing.T) {
	p := mustPlan(t, "sweep", 42)
	cells := map[string]bool{}
	for _, c := range p.cold {
		for _, cell := range cellSet(t, c) {
			cells[cell] = true
		}
	}
	for _, spec := range columnarPoints {
		if cell := fmt.Sprintf("%d/%s", p.seed, specLabel(spec)); !cells[cell] {
			t.Errorf("columnar probe point %s is no cell of the sweep plan", cell)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics
// the runs report in step: the same names, with the same units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	declared := map[string]string{}
	for i, m := range bench.EndToEnd {
		declared[m.Name] = m.Unit
		if i >= len(e2eNames) || e2eNames[i] != m.Name {
			t.Errorf("end_to_end[%d] is %q, the code's is %v", i, m.Name, e2eNames)
		}
	}
	for _, m := range bench.PerLayer {
		declared[m.Name] = m.Unit
	}
	for name, unit := range metricUnits {
		if declared[name] != unit {
			t.Errorf("metric %s: BENCHMARK.json unit %q, code unit %q", name, declared[name], unit)
		}
	}
	for name := range declared {
		if _, ok := metricUnits[name]; !ok {
			t.Errorf("BENCHMARK.json declares %s, which no run reports", name)
		}
	}
}
