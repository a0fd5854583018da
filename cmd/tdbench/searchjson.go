// Machine-readable search benchmarks: `tdbench -searchjson FILE` measures
// the direction-(B) counter-model search — the semigroup table search of
// internal/search and the finite-database enumeration of
// internal/finitemodel — with symmetry breaking on and off, and writes one
// JSON document (BENCH_search.json in-repo). Both engines walk their tree
// on one goroutine, so the grid has two arms, serial/symmetry and
// serial/none, and every snapshot carries its own before/after comparison:
//
//   - speedup is the unpruned arm's ns_per_op over the pruned arm's;
//   - pruned_nodes / unpruned_nodes compare the two arms' node counts,
//     which are exact and deterministic.
//
// `tdbench -checksearch FILE` validates a previously written report: it
// must parse, every workload must carry both arms, verdicts must agree
// across them, and the pruned arm must visit no more nodes than the
// unpruned one.
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

type searchArm struct {
	// Mode is "serial": both engines walk on the calling goroutine.
	Mode string `json:"mode"`
	// Prune is the symmetry-breaking ablation: "symmetry" or "none".
	Prune   string  `json:"prune"`
	NsPerOp float64 `json:"ns_per_op"`
	// Nodes is the run's node count, deterministic for the arm.
	Nodes   int    `json:"nodes"`
	Verdict string `json:"verdict"`
}

type searchWorkload struct {
	Name string      `json:"name"`
	Arms []searchArm `json:"arms"`
	// Speedup is ns_per_op(serial, none) / ns_per_op(serial, symmetry):
	// the stock baseline over the production configuration.
	Speedup float64 `json:"speedup"`
	// PrunedNodes/UnprunedNodes are the node counts of the two arms.
	PrunedNodes   int `json:"pruned_nodes"`
	UnprunedNodes int `json:"unpruned_nodes"`
	// VerdictsIdentical is true when both arms reached the same verdict —
	// the soundness requirement for the ablation.
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
	Workloads []searchWorkload `json:"workloads"`
	Summary   searchSummary    `json:"summary"`
}

// searchCase is one workload: run executes it once under the given prune
// mode and returns the node count and the verdict. Runs are
// deterministic, so one un-timed run per arm records the exact counts.
type searchCase struct {
	name string
	run  func(prune psearch.Prune) (nodes int, verdict string)
}

func searchCases() []searchCase {
	model := func(name string, p *words.Presentation, hi int) searchCase {
		return searchCase{
			name: "modelsearch/" + name,
			run: func(prune psearch.Prune) (int, string) {
				res, err := search.FindCounterModel(p, search.Options{
					Orders:   budget.Range{Lo: 2, Hi: hi},
					Prune:    prune,
					Governor: budget.New(nil, budget.Limits{Nodes: 50_000_000}),
				})
				check(err)
				return res.NodesVisited, res.Status()
			},
		}
	}
	// fdb enumerates databases of up to two tuples over p's reduction,
	// stopping after nodes search nodes.
	fdb := func(name string, p *words.Presentation, nodes int) searchCase {
		in := reduction.MustBuild(p)
		return searchCase{
			name: "finitedb/" + name,
			run: func(prune psearch.Prune) (int, string) {
				res, err := finitemodel.FindCounterexample(in.D, in.D0, finitemodel.Options{
					Sizes:    budget.Range{Lo: 1, Hi: 2},
					Prune:    prune,
					Governor: budget.New(nil, budget.Limits{Nodes: nodes}),
				})
				check(err)
				return res.NodesVisited, res.Status()
			},
		}
	}
	return []searchCase{
		model("power", words.PowerPresentation(), 4),
		model("gap", words.IdempotentGapPresentation(), 5),
		model("nilpotent4", words.NilpotentSafePresentation(4), 4),
		model("tower2", words.PowerTowerPresentation(2), 5),
		fdb("gap", words.IdempotentGapPresentation(), 50_000_000),
		fdb("power", words.PowerPresentation(), 50_000_000),
		// Wide reductions (28 and 36 columns) whose goal is implied: no
		// counterexample exists, so both arms stop at the node cap, and
		// ns_per_op is what a capped finite-db lease costs per node.
		fdb("chain6", words.ChainPresentation(6), 8192),
		fdb("collapse2", words.CollapsePresentation(2), 8192),
	}
}

// searchMode is the Mode of every arm.
const searchMode = "serial"

// searchPrunes are the arms of the grid, production first.
var searchPrunes = []psearch.Prune{psearch.PruneSymmetry, psearch.PruneNone}

func writeSearchJSON(path string, quick bool) {
	fail := reportFail("search")
	reportProbe(path, fail)

	rep := searchReport{reportHost: newReportHost()}
	for _, c := range searchCases() {
		w := searchWorkload{Name: c.name, VerdictsIdentical: true}
		var ns [2]float64
		for i, prune := range searchPrunes {
			nodes, verdict := c.run(prune)
			ns[i] = measureNs(quick, func() { c.run(prune) })
			w.Arms = append(w.Arms, searchArm{
				Mode: searchMode, Prune: prune.String(),
				NsPerOp: ns[i], Nodes: nodes, Verdict: verdict,
			})
			if verdict != w.Arms[0].Verdict {
				w.VerdictsIdentical = false
			}
			fmt.Printf("%-22s %-9s %12.0f ns/op %9d nodes  %s\n", c.name, prune, ns[i], nodes, verdict)
		}
		w.PrunedNodes, w.UnprunedNodes = w.Arms[0].Nodes, w.Arms[1].Nodes
		if ns[0] > 0 {
			w.Speedup = ns[1] / ns[0]
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
// carries both arms, no ablation flipped a verdict, and symmetry breaking
// never grew a tree. Used by the CI bench stage so a refactor cannot
// silently drop an arm or desync the pruned and unpruned walks.
func checkSearchJSON(path string) {
	fail := reportFail(path)
	var rep searchReport
	reportRead(path, &rep, false, fail)
	if len(rep.Workloads) == 0 {
		fail("no workloads")
	}
	for _, w := range rep.Workloads {
		arms := map[string]searchArm{}
		for _, a := range w.Arms {
			arms[a.Mode+"/"+a.Prune] = a
		}
		for _, prune := range searchPrunes {
			key := searchMode + "/" + prune.String()
			if _, ok := arms[key]; !ok {
				fail("workload %s missing ablation arm %s", w.Name, key)
			}
		}
		if !w.VerdictsIdentical {
			fail("workload %s: verdict changed across ablation arms", w.Name)
		}
		pruned, unpruned := arms[searchMode+"/symmetry"].Nodes, arms[searchMode+"/none"].Nodes
		if pruned > unpruned {
			fail("workload %s: the pruned arm visits %d nodes, more than the unpruned arm's %d", w.Name, pruned, unpruned)
		}
	}
	if !rep.Summary.AllVerdictsIdentical {
		fail("summary reports non-identical verdicts")
	}
	fmt.Printf("%s: %d workloads, all %d arms present, verdicts identical, pruning never grows a tree; headline %.2fx (%s), gap nodes %d -> %d\n",
		path, len(rep.Workloads), len(searchPrunes), rep.Summary.HeadlineSpeedup, rep.Summary.HeadlineWorkload,
		rep.Summary.GapUnprunedNodes, rep.Summary.GapPrunedNodes)
}
