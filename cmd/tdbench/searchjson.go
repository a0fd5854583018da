// Machine-readable search benchmarks: `tdbench -searchjson FILE` measures
// the direction-(B) counter-model search — the semigroup table search of
// internal/search and the finite-database enumeration of
// internal/finitemodel — under a 2x2 ablation grid and writes one JSON
// document (BENCH_search.json in-repo). The grid crosses execution mode
// (serial vs parallel with 4 workers) with symmetry breaking (symmetry vs
// none), so every snapshot carries its own before/after comparison in both
// dimensions:
//
//   - speedup is baseline (serial, prune=none) over production
//     (parallel-4, prune=symmetry), a stock-vs-production comparison
//     within one report. On a single-core
//     machine the parallel dimension alone is roughly neutral; the wins
//     come from pruning, and the report records num_cpu so the reader can
//     judge the headline honestly.
//   - pruned_nodes / unpruned_nodes compare the serial node ledgers, which
//     are exact and deterministic (parallel committed ledgers are
//     identical by construction, so the serial ones stand for both).
//
// `tdbench -checksearch FILE` validates a previously written report: it
// must parse, every workload must carry both ablation arms in both
// dimensions, and verdicts must agree across all four arms.
package main

import (
	"fmt"

	"templatedep/internal/budget"
	"templatedep/internal/finitemodel"
	"templatedep/internal/psearch"
	"templatedep/internal/reduction"
	"templatedep/internal/search"
	"templatedep/internal/words"
)

// benchWorkers is the worker count of the parallel arms. Fixed rather than
// NumCPU-derived so reports from different machines measure the same
// configuration.
const benchWorkers = 4

type searchArm struct {
	// Mode is "serial" (Workers=1) or "parallel-4" (Workers=4).
	Mode string `json:"mode"`
	// Prune is the symmetry-breaking ablation: "symmetry" or "none".
	Prune   string  `json:"prune"`
	NsPerOp float64 `json:"ns_per_op"`
	// Nodes is the committed node ledger — identical for every Workers
	// value by the determinism contract of internal/psearch.
	Nodes int `json:"nodes"`
	// SpeculativeNodes counts extra work parallel arms performed beyond
	// the committed ledger; scheduling-dependent and typically 0 on one
	// core.
	SpeculativeNodes int    `json:"speculative_nodes,omitempty"`
	Verdict          string `json:"verdict"`
}

type searchWorkload struct {
	Name string      `json:"name"`
	Arms []searchArm `json:"arms"`
	// Speedup is ns_per_op(serial, none) / ns_per_op(parallel-4,
	// symmetry): stock baseline over production configuration.
	Speedup float64 `json:"speedup"`
	// PrunedNodes/UnprunedNodes are the serial node ledgers of the two
	// prune arms.
	PrunedNodes   int `json:"pruned_nodes"`
	UnprunedNodes int `json:"unpruned_nodes"`
	// VerdictsIdentical is true when all four arms reached the same
	// verdict — the soundness requirement for every ablation.
	VerdictsIdentical bool `json:"verdicts_identical"`
}

type searchSummary struct {
	// HeadlineSpeedup is the best baseline-over-production ratio across
	// workloads, and HeadlineWorkload names where it occurred.
	HeadlineSpeedup  float64 `json:"headline_speedup"`
	HeadlineWorkload string  `json:"headline_workload"`
	// Gap*Nodes restate the pruning effect on the finitedb/gap workload,
	// the paper's hard instance: symmetry breaking must shrink its tree
	// without changing the verdict.
	GapPrunedNodes       int  `json:"gap_pruned_nodes"`
	GapUnprunedNodes     int  `json:"gap_unpruned_nodes"`
	AllVerdictsIdentical bool `json:"all_verdicts_identical"`
}

type searchReport struct {
	reportHost
	Workers   int              `json:"workers"`
	Workloads []searchWorkload `json:"workloads"`
	Summary   searchSummary    `json:"summary"`
}

// searchCase is one workload: run executes it once under the given arm and
// returns the node ledgers and the verdict. Runs are deterministic, so one
// un-timed run per arm records the exact counts.
type searchCase struct {
	name string
	run  func(workers int, prune psearch.Prune) (nodes, spec int, verdict string)
}

func searchCases() []searchCase {
	model := func(name string, p *words.Presentation, hi int) searchCase {
		return searchCase{
			name: "modelsearch/" + name,
			run: func(workers int, prune psearch.Prune) (int, int, string) {
				res, err := search.FindCounterModel(p, search.Options{
					Orders:   budget.Range{Lo: 2, Hi: hi},
					Workers:  workers,
					Prune:    prune,
					Governor: budget.New(nil, budget.Limits{Nodes: 50_000_000}),
				})
				check(err)
				return res.NodesVisited, res.SpeculativeNodes, res.Status()
			},
		}
	}
	fdb := func(name string, p *words.Presentation) searchCase {
		in := reduction.MustBuild(p)
		return searchCase{
			name: "finitedb/" + name,
			run: func(workers int, prune psearch.Prune) (int, int, string) {
				res, err := finitemodel.FindCounterexample(in.D, in.D0, finitemodel.Options{
					Sizes:    budget.Range{Lo: 1, Hi: 2},
					Workers:  workers,
					Prune:    prune,
					Governor: budget.New(nil, budget.Limits{Nodes: 50_000_000}),
				})
				check(err)
				return res.NodesVisited, res.SpeculativeNodes, res.Status()
			},
		}
	}
	return []searchCase{
		model("power", words.PowerPresentation(), 4),
		model("gap", words.IdempotentGapPresentation(), 5),
		model("nilpotent4", words.NilpotentSafePresentation(4), 4),
		model("tower2", words.PowerTowerPresentation(2), 5),
		fdb("gap", words.IdempotentGapPresentation()),
		fdb("power", words.PowerPresentation()),
	}
}

// searchArms is the 2x2 ablation grid. The order is load-bearing for
// -checksearch only in that all four must be present; speedup and node
// deltas are found by (mode, prune) lookup, not position.
var searchArms = []struct {
	mode    string
	workers int
	prune   psearch.Prune
}{
	{"serial", 1, psearch.PruneSymmetry},
	{"serial", 1, psearch.PruneNone},
	{"parallel-4", benchWorkers, psearch.PruneSymmetry},
	{"parallel-4", benchWorkers, psearch.PruneNone},
}

func writeSearchJSON(path string, quick bool) {
	fail := reportFail("search")
	reportProbe(path, fail)

	rep := searchReport{
		reportHost: newReportHost(),
		Workers:    benchWorkers,
	}

	measure := func(run func()) float64 { return measureNs(quick, run) }

	for _, c := range searchCases() {
		w := searchWorkload{Name: c.name, VerdictsIdentical: true}
		var baselineNs, productionNs float64
		for _, arm := range searchArms {
			nodes, spec, verdict := c.run(arm.workers, arm.prune)
			ns := measure(func() { c.run(arm.workers, arm.prune) })
			a := searchArm{
				Mode: arm.mode, Prune: arm.prune.String(),
				NsPerOp: ns, Nodes: nodes, SpeculativeNodes: spec, Verdict: verdict,
			}
			w.Arms = append(w.Arms, a)
			if verdict != w.Arms[0].Verdict {
				w.VerdictsIdentical = false
			}
			switch {
			case arm.workers == 1 && arm.prune == psearch.PruneNone:
				baselineNs, w.UnprunedNodes = ns, nodes
			case arm.workers == benchWorkers && arm.prune == psearch.PruneSymmetry:
				productionNs = ns
			case arm.workers == 1 && arm.prune == psearch.PruneSymmetry:
				w.PrunedNodes = nodes
			}
			fmt.Printf("%-22s %-10s %-9s %12.0f ns/op %9d nodes  %s\n",
				c.name, arm.mode, arm.prune, ns, nodes, verdict)
		}
		if productionNs > 0 {
			w.Speedup = baselineNs / productionNs
		}
		rep.Workloads = append(rep.Workloads, w)
		if w.Speedup > rep.Summary.HeadlineSpeedup {
			rep.Summary.HeadlineSpeedup = w.Speedup
			rep.Summary.HeadlineWorkload = w.Name
		}
	}
	rep.Summary.AllVerdictsIdentical = true
	for _, w := range rep.Workloads {
		if !w.VerdictsIdentical {
			rep.Summary.AllVerdictsIdentical = false
		}
		if w.Name == "finitedb/gap" {
			rep.Summary.GapPrunedNodes = w.PrunedNodes
			rep.Summary.GapUnprunedNodes = w.UnprunedNodes
		}
	}

	reportWrite(path, rep, fail)
	fmt.Printf("\nwrote %d workloads to %s (headline %.2fx on %s, gap nodes %d -> %d)\n",
		len(rep.Workloads), path, rep.Summary.HeadlineSpeedup, rep.Summary.HeadlineWorkload,
		rep.Summary.GapUnprunedNodes, rep.Summary.GapPrunedNodes)
}

// checkSearchJSON validates a BENCH_search.json: parseable, every workload
// carries all four ablation arms, and no ablation flipped a verdict. Used
// by the CI smoke so a refactor cannot silently drop an arm or desync the
// serial and parallel search paths.
func checkSearchJSON(path string) {
	fail := reportFail(path)
	var rep searchReport
	reportRead(path, &rep, false, fail)
	if len(rep.Workloads) == 0 {
		fail("no workloads")
	}
	for _, w := range rep.Workloads {
		seen := map[string]bool{}
		for _, a := range w.Arms {
			seen[a.Mode+"/"+a.Prune] = true
		}
		for _, arm := range searchArms {
			key := arm.mode + "/" + arm.prune.String()
			if !seen[key] {
				fail("workload %s missing ablation arm %s", w.Name, key)
			}
		}
		if !w.VerdictsIdentical {
			fail("workload %s: verdict changed across ablation arms", w.Name)
		}
	}
	if !rep.Summary.AllVerdictsIdentical {
		fail("summary reports non-identical verdicts")
	}
	fmt.Printf("%s: %d workloads, all %d arms present, verdicts identical; headline %.2fx (%s), gap nodes %d -> %d\n",
		path, len(rep.Workloads), len(searchArms), rep.Summary.HeadlineSpeedup, rep.Summary.HeadlineWorkload,
		rep.Summary.GapUnprunedNodes, rep.Summary.GapPrunedNodes)
}
