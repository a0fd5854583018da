// Machine-readable portfolio benchmarks: `tdbench -portfoliojson FILE`
// times the adaptive portfolio (portfolio.AnalyzePresentation: leases
// reallocated from live progress signals) on a grid of presets and writes
// one JSON document (BENCH_portfolio.json in-repo) recording, per preset,
// the time per run, the verdict, the winning arm and the scheduler's work,
// and once for the whole grid the arms' hard ceilings. kb and the
// derivation arm run at their engine defaults, as in tdserve and every
// other front-end, so a zero-config tdserve settles the grid with the same
// verdicts and winners.
//
// The grid covers each arm that settles presentations:
//
//   - power is refuted by a finite counter-model (the model-search arm);
//   - twostep and chain:2 are derivable, and the equational closure (the
//     derivation arm) derives A0 = 0 in its first lease;
//   - collapse:4 is decided by Knuth–Bendix completion (the kb arm) in its
//     first lease: the closure's opening lease does not reach 0, and the
//     alphabet makes the counter-model search exhaust its node budget.
//
// The gap preset is deliberately absent: no arm settles it, and its chase
// rounds outgrow memory before the tuple meter can stop them (ROADMAP,
// "Bound the chase's in-round memory"), so a run would need a wall-clock
// deadline and the report would time the deadline, not the engines.
//
// `tdbench -checkportfolio FILE` validates a previously written report: it
// must parse strictly and time every grid preset, and each preset must
// reach the verdict through the arm the grid expects. Verdicts are bounded
// by meters, not wall-clock, so the gate holds for -portfolioquick reports
// (single timed runs, CI smoke) too.
package main

import (
	"fmt"

	"templatedep/internal/budget"
	"templatedep/internal/core"
	"templatedep/internal/portfolio"
	"templatedep/internal/rewrite"
	"templatedep/internal/words"
)

type portfolioWorkload struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
	Verdict string  `json:"verdict"`
	// Winner names the settling arm ("derivation", "kb", "model-search",
	// "chase").
	Winner string `json:"winner,omitempty"`
	// Ticks and Decisions report the scheduler's work.
	Ticks     int `json:"ticks"`
	Decisions int `json:"decisions"`
}

// portfolioCeilings are the arms' hard ceilings every grid run used.
type portfolioCeilings struct {
	ChaseRounds       int    `json:"chase_rounds"`
	ChaseTuples       int    `json:"chase_tuples"`
	ModelSearchNodes  int    `json:"model_search_nodes"`
	ModelSearchOrders [2]int `json:"model_search_orders"`
	KBRules           int    `json:"kb_rules"`
	KBSweeps          int    `json:"kb_sweeps"`
}

type portfolioReport struct {
	reportHost
	// Quick marks single-timed-run reports (CI smoke): verdicts and
	// winners are meaningful, the timings are not.
	Quick     bool                `json:"quick"`
	Ceilings  portfolioCeilings   `json:"ceilings"`
	Workloads []portfolioWorkload `json:"workloads"`
}

// portfolioGrid is the benchmark grid (see the file comment for why gap is
// excluded), each preset with the verdict and winning arm -checkportfolio
// requires of it.
var portfolioGrid = []struct{ preset, verdict, winner string }{
	{"power", "finite-counterexample", "model-search"},
	{"twostep", "implied", "derivation"},
	{"chain:2", "implied", "derivation"},
	{"collapse:4", "implied", "kb"},
}

// portfolioBenchCeilings are the grid's arm ceilings: a 300k-node budget
// over semigroup orders 2–6 for the counter-model search, the
// tdinfer-default chase meters for the chase arm, and the engine defaults
// for completion and the closure.
var portfolioBenchCeilings = portfolioCeilings{
	ChaseRounds: 64, ChaseTuples: 100_000,
	ModelSearchNodes: 300_000, ModelSearchOrders: [2]int{2, 6},
	KBRules: rewrite.DefaultLimits.Rules, KBSweeps: rewrite.DefaultLimits.Rounds,
}

// portfolioBenchBudget builds a fresh budget at portfolioBenchCeilings;
// kb's and the closure's governors stay nil, which means
// rewrite.DefaultLimits and words.DefaultLimits.
func portfolioBenchBudget() core.Budget {
	c := portfolioBenchCeilings
	b := core.Budget{}
	b.ModelSearch.Governor = budget.New(nil, budget.Limits{Nodes: c.ModelSearchNodes})
	b.ModelSearch.Orders = budget.Range{Lo: c.ModelSearchOrders[0], Hi: c.ModelSearchOrders[1]}
	b.Chase.Governor = budget.New(nil, budget.Limits{Rounds: c.ChaseRounds, Tuples: c.ChaseTuples})
	return b
}

func writePortfolioJSON(path string, quick bool) {
	fail := reportFail("portfolio")
	reportProbe(path, fail)

	rep := portfolioReport{reportHost: newReportHost(), Quick: quick, Ceilings: portfolioBenchCeilings}
	fmt.Printf("ceilings: %+v\n\n", rep.Ceilings)
	for _, g := range portfolioGrid {
		p, err := words.Preset(g.preset)
		check(err)
		res, err := portfolio.AnalyzePresentation(p, portfolioBenchBudget())
		check(err)
		ns := measureNs(quick, func() {
			_, err := portfolio.AnalyzePresentation(p, portfolioBenchBudget())
			check(err)
		})
		w := portfolioWorkload{Name: g.preset, NsPerOp: ns, Verdict: res.Verdict.String(),
			Winner: res.Winner, Ticks: res.Ticks, Decisions: len(res.Decisions)}
		rep.Workloads = append(rep.Workloads, w)
		fmt.Printf("%-12s %12.0f ns  %s/%s, %d ticks, %d decisions\n",
			w.Name, w.NsPerOp, w.Verdict, orNone(w.Winner), w.Ticks, w.Decisions)
	}

	reportWrite(path, rep, fail)
	fmt.Printf("\nwrote %d workloads to %s\n", len(rep.Workloads), path)
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}

// checkPortfolioJSON validates a BENCH_portfolio.json: every grid preset
// present and timed, with the grid's verdict and winning arm.
func checkPortfolioJSON(path string) {
	fail := reportFail(path)
	var rep portfolioReport
	reportRead(path, &rep, true, fail)
	byName := map[string]portfolioWorkload{}
	for _, w := range rep.Workloads {
		byName[w.Name] = w
	}
	for _, g := range portfolioGrid {
		w, ok := byName[g.preset]
		switch {
		case !ok:
			fail("preset %s missing", g.preset)
		case w.NsPerOp <= 0:
			fail("preset %s not timed", g.preset)
		case w.Verdict != g.verdict || w.Winner != g.winner:
			fail("preset %s: %s won by %s, want %s won by %s",
				g.preset, w.Verdict, orNone(w.Winner), g.verdict, g.winner)
		}
	}
	fmt.Printf("%s: %d presets, each with its expected verdict and winning arm%s\n",
		path, len(portfolioGrid), map[bool]string{true: " [quick: timings are single runs]", false: ""}[rep.Quick])
}
