// Machine-readable portfolio benchmarks: `tdbench -portfoliojson FILE`
// compares the two presentation-level front-ends — the static race
// (core.AnalyzePresentationRace: every arm holds its whole budget up
// front) and the adaptive portfolio (portfolio.AnalyzePresentation:
// leases reallocated from live progress signals) — on the same presets
// under matched meter ceilings, and writes one JSON document
// (BENCH_portfolio.json in-repo).
//
// The grid is chosen to expose both regimes:
//
//   - power, twostep, chain:2 are settled quickly by both front-ends;
//     the portfolio must stay within noise of the race here (adaptivity
//     must not tax the easy cases);
//   - collapse:4 is the KB-decidable presentation the race cannot
//     answer: its self-expanding equations defeat the BFS closure (the
//     derivation arm exhausts its word budget) and its alphabet makes
//     the counter-model search exhaust its node budget, while
//     Knuth–Bendix completion is confluent within a few sweeps. The
//     portfolio's kb arm settles it in its first lease — the headline
//     row, required to win by at least 2x.
//
// The gap preset is deliberately absent: its chase instance has no safe
// static budget (phase-1 matching is only checkpointed at round
// boundaries), so a race side would need a wall-clock deadline and the
// comparison would measure the deadline, not the engines.
//
// `tdbench -checkportfolio FILE` validates a previously written report:
// it must parse, every workload must carry both sides, and no workload
// may have the two front-ends reach CONTRADICTORY definitive verdicts
// (unknown-vs-definitive is fine — answering where the race cannot is
// the portfolio's purpose). Full reports additionally enforce the
// acceptance thresholds; -portfolioquick reports (single timed runs, CI
// smoke) are checked for structure and consistency only.
package main

import (
	"fmt"
	"runtime"

	"templatedep/internal/budget"
	"templatedep/internal/core"
	"templatedep/internal/portfolio"
	"templatedep/internal/rewrite"
	"templatedep/internal/words"
)

type portfolioSide struct {
	NsPerOp float64 `json:"ns_per_op"`
	Verdict string  `json:"verdict"`
	// Winner names the settling arm ("derivation"/"model-search" for the
	// race; "kb"/"model-search"/"chase" for the portfolio).
	Winner string `json:"winner,omitempty"`
	// Ticks and Decisions report the portfolio's scheduler work; zero on
	// the race side.
	Ticks     int `json:"ticks,omitempty"`
	Decisions int `json:"decisions,omitempty"`
}

type portfolioWorkload struct {
	Name      string        `json:"name"`
	Race      portfolioSide `json:"race"`
	Portfolio portfolioSide `json:"portfolio"`
	// Speedup is race ns over portfolio ns (>1 means the portfolio was
	// faster).
	Speedup float64 `json:"speedup"`
	// Consistent is false only when both sides reached definitive but
	// DIFFERENT verdicts — the soundness requirement.
	Consistent bool `json:"consistent"`
}

type portfolioSummary struct {
	// WinnerCounts is the portfolio's arm-win distribution across the
	// grid (verdict-producing arm per preset; "none" for unknown).
	WinnerCounts map[string]int `json:"winner_counts"`
	// KBSpeedup is the portfolio's speedup on the KB-decidable headline
	// row, and KBWorkload names it.
	KBSpeedup  float64 `json:"kb_speedup"`
	KBWorkload string  `json:"kb_workload"`
	// WithinNoise counts workloads where the portfolio cost at most 1.5x
	// the race plus 50ms of slack.
	WithinNoise   int  `json:"within_noise"`
	AllConsistent bool `json:"all_consistent"`
}

type portfolioReport struct {
	reportHost
	NumCPU int `json:"num_cpu"`
	// Quick marks single-timed-run reports (CI smoke): structure and
	// consistency are meaningful, the timings are not.
	Quick     bool                `json:"quick"`
	Workloads []portfolioWorkload `json:"workloads"`
	Summary   portfolioSummary    `json:"summary"`
}

// portfolioBenchPresets is the comparison grid (see the package comment
// for why gap is excluded).
var portfolioBenchPresets = []string{"power", "twostep", "chain:2", "collapse:4"}

// portfolioRaceBudget is the static side's configuration: each arm holds
// its whole meter budget up front.
func portfolioRaceBudget() core.Budget {
	b := core.DefaultBudget()
	b.Closure.Governor = budget.New(nil, budget.Limits{Words: 100_000})
	b.ModelSearch.Governor = budget.New(nil, budget.Limits{Nodes: 300_000})
	b.ModelSearch.Orders = budget.Range{Lo: 2, Hi: 6}
	return b
}

// portfolioBenchOptions matches the adaptive side's hard ceilings to the
// race budgets: same node budget and order window for the counter-model
// search, the engine-default rule budget for completion, and the
// tdinfer-default chase meters for the chase arm (which the race does
// not run at all — the comparison charges the portfolio for its extra
// arm rather than crediting it).
func portfolioBenchOptions() portfolio.Options {
	opt := portfolio.Options{}
	opt.Completion.Governor = budget.New(nil, rewrite.DefaultLimits)
	opt.ModelSearch.Governor = budget.New(nil, budget.Limits{Nodes: 300_000})
	opt.ModelSearch.Orders = budget.Range{Lo: 2, Hi: 6}
	opt.Chase.Governor = budget.New(nil, budget.Limits{Rounds: 64, Tuples: 100_000})
	return opt
}

func writePortfolioJSON(path string, quick bool) {
	fail := reportFail("portfolio")
	reportProbe(path, fail)

	rep := portfolioReport{
		reportHost: newReportHost(),
		NumCPU:     runtime.NumCPU(),
		Quick:      quick,
		Summary:    portfolioSummary{WinnerCounts: map[string]int{}, AllConsistent: true},
	}

	measure := func(run func()) float64 { return measureNs(quick, run) }

	for _, preset := range portfolioBenchPresets {
		p, err := words.Preset(preset)
		check(err)

		rres, err := core.AnalyzePresentationRace(p, portfolioRaceBudget())
		check(err)
		raceNs := measure(func() {
			_, err := core.AnalyzePresentationRace(p, portfolioRaceBudget())
			check(err)
		})

		pres, err := portfolio.AnalyzePresentation(p, portfolioBenchOptions())
		check(err)
		pfNs := measure(func() {
			_, err := portfolio.AnalyzePresentation(p, portfolioBenchOptions())
			check(err)
		})

		w := portfolioWorkload{
			Name: preset,
			Race: portfolioSide{NsPerOp: raceNs, Verdict: rres.Verdict.String(), Winner: rres.Winner},
			Portfolio: portfolioSide{NsPerOp: pfNs, Verdict: pres.Verdict.String(),
				Winner: pres.Winner, Ticks: pres.Ticks, Decisions: len(pres.Decisions)},
			Speedup:    raceNs / pfNs,
			Consistent: portfolioConsistent(rres.Verdict.String(), pres.Verdict.String()),
		}
		rep.Workloads = append(rep.Workloads, w)

		winner := pres.Winner
		if winner == "" {
			winner = "none"
		}
		rep.Summary.WinnerCounts[winner]++
		if !w.Consistent {
			rep.Summary.AllConsistent = false
		}
		if winner == "kb" && w.Speedup > rep.Summary.KBSpeedup {
			rep.Summary.KBSpeedup = w.Speedup
			rep.Summary.KBWorkload = w.Name
		}
		if pfNs <= raceNs*1.5+50e6 {
			rep.Summary.WithinNoise++
		}
		fmt.Printf("%-12s race %12.0f ns (%s/%s)   portfolio %12.0f ns (%s/%s, %d ticks)  %5.2fx\n",
			preset, raceNs, w.Race.Verdict, orNone(w.Race.Winner),
			pfNs, w.Portfolio.Verdict, orNone(w.Portfolio.Winner), w.Portfolio.Ticks, w.Speedup)
	}

	reportWrite(path, rep, fail)
	fmt.Printf("\nwrote %d workloads to %s (kb headline %.2fx on %s, %d/%d within noise)\n",
		len(rep.Workloads), path, rep.Summary.KBSpeedup, rep.Summary.KBWorkload,
		rep.Summary.WithinNoise, len(rep.Workloads))
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}

// portfolioConsistent reports whether two verdict strings can honestly
// describe one instance: equal, or at least one of them unknown.
func portfolioConsistent(a, b string) bool {
	return a == b || a == "unknown" || b == "unknown"
}

// checkPortfolioJSON validates a BENCH_portfolio.json. Structure and
// verdict consistency always; the acceptance thresholds — at least two
// presets within noise of the race, and a kb win of at least 2x on a
// KB-decidable presentation — only for full (non-quick) reports, since a
// single timed run proves nothing about wall-clock.
func checkPortfolioJSON(path string) {
	fail := reportFail(path)
	var rep portfolioReport
	reportRead(path, &rep, false, fail)
	if len(rep.Workloads) == 0 {
		fail("no workloads")
	}
	for _, w := range rep.Workloads {
		if w.Race.NsPerOp <= 0 || w.Portfolio.NsPerOp <= 0 {
			fail("workload %s missing a timed side", w.Name)
		}
		if !w.Consistent || !portfolioConsistent(w.Race.Verdict, w.Portfolio.Verdict) {
			fail("workload %s: contradictory definitive verdicts (race %s, portfolio %s)",
				w.Name, w.Race.Verdict, w.Portfolio.Verdict)
		}
	}
	if !rep.Summary.AllConsistent {
		fail("summary reports inconsistent verdicts")
	}
	if !rep.Quick {
		if rep.Summary.WithinNoise < 2 {
			fail("portfolio within noise of the race on only %d presets (want >= 2)", rep.Summary.WithinNoise)
		}
		if rep.Summary.KBSpeedup < 2 {
			fail("kb headline speedup %.2fx (want >= 2x on a KB-decidable presentation)", rep.Summary.KBSpeedup)
		}
	}
	fmt.Printf("%s: %d workloads, verdicts consistent; kb headline %.2fx (%s), %d/%d within noise%s\n",
		path, len(rep.Workloads), rep.Summary.KBSpeedup, rep.Summary.KBWorkload,
		rep.Summary.WithinNoise, len(rep.Workloads),
		map[bool]string{true: " [quick: thresholds not enforced]", false: ""}[rep.Quick])
}
