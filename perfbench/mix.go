package main

import (
	"encoding/json"
	"fmt"

	"rampage/internal/harness"
	"rampage/internal/policy"
)

// plan is what one workload asks of the service, as a pure function of
// the run's seed: the scale its jobs run at, the jobs set-up runs, and
// the cold requests every round submits to a fresh server, each with
// the warm requests its cells answer.
type plan struct {
	name  string
	scale string
	// seed is the seed of the workload's own inputs, which the probes
	// replay: that of every cold request, or of the first one.
	seed uint64
	// fillCache makes set-up capture the seed's workload into the
	// harness workload cache, so cold jobs replay it instead of
	// generating it.
	fillCache bool
	// fill are jobs set-up runs on seeds the measured rounds never use.
	fill [][]byte
	cold []request
	// pageBytes is the page size the page-table probe replays with.
	pageBytes uint64
}

// request is one job body and what its document is checked against.
// Exactly one of exp and run is set.
type request struct {
	seed uint64
	body []byte
	exp  *expGrid
	run  *runPoint
	// warm are requests whose every cell is one of this request's, so
	// each restores a complete checkpoint its cold job captured.
	warm []request
}

// expGrid is an experiment request's sub-grid.
type expGrid struct {
	id           string
	rates, sizes []uint64
}

// runPoint is a run request's point, named by the golden document and
// grid label its report belongs to.
type runPoint struct {
	doc, label string
	spec       harness.RunSpec
}

const runMHz, runBytes = 1000, 1024

// runPoints are the runs workload's points: one per replacement policy
// (the policies golden's 1 GHz row) runs all five victim selectors, and
// baseline-dm, l2-2way and rampage-cs add the other machines.
var runPoints = func() []runPoint {
	pt := func(doc, label string, sys harness.SystemKind, pol string, switchTrace bool) runPoint {
		return runPoint{doc, label, harness.RunSpec{System: sys, IssueMHz: runMHz, SizeBytes: runBytes, Policy: pol, SwitchTrace: switchTrace}}
	}
	return []runPoint{
		pt("policies", "rampage", harness.RAMpage, "", false),
		pt("policies", "rampage+fifo", harness.RAMpage, policy.FIFO, false),
		pt("policies", "rampage+random", harness.RAMpage, policy.Random, false),
		pt("policies", "rampage+awrp", harness.RAMpage, policy.AWRP, false),
		pt("policies", "rampage+bandwidth", harness.RAMpage, policy.Bandwidth, false),
		pt("table3", "baseline-dm", harness.BaselineDM, "", false),
		pt("table5", "l2-2way", harness.TwoWayL2, "", true),
		pt("table4", "rampage-cs", harness.RAMpageCS, "", true),
	}
}()

// columnarPoints are the points the columnar-path probe times, one per
// machine the sweep workload's grids run; each is a cell of a sweep
// request, so at the same seed the probe's report is checked against it.
var columnarPoints = []harness.RunSpec{
	{System: harness.BaselineDM, IssueMHz: 1000, SizeBytes: 4096},
	{System: harness.RAMpage, IssueMHz: 1000, SizeBytes: 4096},
	{System: harness.RAMpageCS, IssueMHz: 1000, SizeBytes: 2048, SwitchTrace: true},
}

// beyondAnyWorkload is a reference budget no workload reaches: a run
// under it executes the whole workload, as an unbudgeted run does, but
// is a distinct request, answered from the unbudgeted run's complete
// checkpoint.
const beyondAnyWorkload = 1 << 40

// Seeds of set-up's fill jobs and of the service workload's cold
// requests, derived from the run's seed.
const (
	fillJobs   = 8 // the harness workload cache's capacity
	serviceJob = 6 // cold requests a round
	seedStride = 1 << 20
)

func newPlan(name string, seed uint64) (plan, error) {
	switch name {
	case "sweep":
		return sweepPlan(seed), nil
	case "runs":
		return runsPlan(seed), nil
	case "service":
		return servicePlan(seed), nil
	}
	return plan{}, fmt.Errorf("unknown workload %q (want sweep, runs or service)", name)
}

// sweepPlan regenerates paper artifacts at default scale on the run's
// seed: table3 rows (baseline-dm, rampage; 4 KB) at 200 MHz, 1 GHz and
// 4 GHz, one job each, so a round has several first cells of one kind,
// and a table4 sub-grid (rampage-cs with the switch trace, and rampage,
// at 1 and 4 GHz) at a size table3's rows do not use, so every cell is
// cold. The seed's workload is captured in set-up, so the columnar path
// does nearly all the cold work. Warm requests are the fig2, fig4 and
// fig3 rows, which are those table3 rows. table4's rows restore faster:
// among them, the warm p50 would be the fastest fig row, an extreme of
// three samples instead of their median.
func sweepPlan(seed uint64) plan {
	const scale = "default"
	page, cs := []uint64{4096}, []uint64{2048}
	return plan{
		name: "sweep", scale: scale, seed: seed, fillCache: true, pageBytes: 4096,
		cold: []request{
			expRequest(scale, seed, "table3", []uint64{200}, page, expRequest(scale, seed, "fig2", nil, page)),
			expRequest(scale, seed, "table3", []uint64{1000}, page, expRequest(scale, seed, "fig4", nil, page)),
			expRequest(scale, seed, "table3", []uint64{4000}, page, expRequest(scale, seed, "fig3", nil, page)),
			expRequest(scale, seed, "table4", []uint64{1000, 4000}, cs),
		},
	}
}

// runsPlan runs single points at default scale, as kind=run jobs and
// rampage-sim do: every run regenerates its workload and takes the row
// path. A warm request asks for a point under a budget beyond the
// workload's length. Every warm run repositions the same generators,
// which is nearly all its cost, so one point per machine has one and
// two rounds fit in a run. Set-up runs the first point once on another
// seed, so the process-global page-table arena pools are warm before
// the first cold run, as on a server that has run for a while.
func runsPlan(seed uint64) plan {
	const scale = "default"
	p := plan{name: "runs", scale: scale, seed: seed, pageBytes: runBytes,
		fill: [][]byte{runRequest(scale, fillSeed(seed, 1), &runPoints[0], 0).body}}
	machines := map[harness.SystemKind]bool{}
	for i := range runPoints {
		pt := &runPoints[i]
		req := runRequest(scale, seed, pt, 0)
		if !machines[pt.spec.System] {
			machines[pt.spec.System] = true
			req.warm = []request{runRequest(scale, seed, pt, beyondAnyWorkload)}
		}
		p.cold = append(p.cold, req)
	}
	return p
}

// servicePlan keeps the service layers busy with small quick-scale
// jobs: table3 sub-grids on seeds of their own, which set-up's fill
// jobs keep out of the full workload cache, so every job generates its
// workload as on a server that has run for a while. Warm requests are
// the fig3 and fig4 rows of each grid.
func servicePlan(seed uint64) plan {
	const scale = "quick"
	sizes := []uint64{4096}
	p := plan{name: "service", scale: scale, seed: coldSeed(seed, 0), pageBytes: 4096}
	for i := 0; i < fillJobs; i++ {
		p.fill = append(p.fill, expRequest(scale, fillSeed(seed, i), "fig4", nil, sizes).body)
	}
	for i := 0; i < serviceJob; i++ {
		s := coldSeed(seed, i)
		p.cold = append(p.cold, expRequest(scale, s, "table3", []uint64{1000, 4000}, sizes,
			expRequest(scale, s, "fig3", nil, sizes),
			expRequest(scale, s, "fig4", nil, sizes)))
	}
	return p
}

// fillSeed and coldSeed derive job seeds other than the run's own; no
// two runs with different seeds, and no fill and cold job, share one.
func fillSeed(run uint64, i int) uint64 { return run*seedStride + uint64(i) }
func coldSeed(run uint64, i int) uint64 { return run*seedStride + fillJobs + uint64(i) }

func expRequest(scale string, seed uint64, id string, rates, sizes []uint64, warm ...request) request {
	return request{seed: seed, exp: &expGrid{id, rates, sizes}, warm: warm, body: mustJSON(struct {
		Kind  string   `json:"kind"`
		ID    string   `json:"id"`
		Scale string   `json:"scale"`
		Seed  uint64   `json:"seed"`
		Rates []uint64 `json:"rates_mhz,omitempty"`
		Sizes []uint64 `json:"sizes_bytes,omitempty"`
	}{"experiment", id, scale, seed, rates, sizes})}
}

func runRequest(scale string, seed uint64, pt *runPoint, maxRefs uint64, warm ...request) request {
	return request{seed: seed, run: pt, warm: warm, body: mustJSON(struct {
		Kind        string `json:"kind"`
		Scale       string `json:"scale"`
		Seed        uint64 `json:"seed"`
		System      string `json:"system"`
		IssueMHz    uint64 `json:"issue_mhz"`
		SizeBytes   uint64 `json:"size_bytes"`
		SwitchTrace bool   `json:"switch_trace,omitempty"`
		Policy      string `json:"policy,omitempty"`
		MaxRefs     uint64 `json:"max_refs,omitempty"`
	}{"run", scale, seed, pt.spec.System.String(), pt.spec.IssueMHz, pt.spec.SizeBytes,
		pt.spec.SwitchTrace, pt.spec.Policy, maxRefs})}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // fixed structs of strings, booleans and integers always marshal
	}
	return b
}
