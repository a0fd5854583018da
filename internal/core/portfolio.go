package core

import (
	"templatedep/internal/budget"
	"templatedep/internal/chase"
	"templatedep/internal/obs"
	"templatedep/internal/portfolio"
	"templatedep/internal/td"
)

// This file bridges the static front-ends onto internal/portfolio, the
// adaptive scheduler that replaces fixed up-front arm budgets with leases
// reallocated from live progress signals. The bridge owns the vocabulary
// translation in both directions: a core Budget becomes portfolio Options
// (arm governors contribute their limits as hard ceilings, the run-wide
// governor becomes the parent pool), and a portfolio Verdict maps back
// onto the core one by construction — the two enums share values and
// strings.

// PortfolioOptions derives portfolio Options from the budget: each arm
// governor's limits become that arm's hard ceilings, the run-wide
// governor becomes the parent pool (its context cancels the portfolio at
// the next lease boundary, and its certifying replay; any meter it caps
// becomes shared headroom), and the sink and chase worker count thread
// through. Completion runs under the same bounded side-check governor as
// the static pipeline's Knuth–Bendix fallback.
func (b Budget) PortfolioOptions() portfolio.Options {
	opt := portfolio.Options{
		Governor:    b.Governor,
		Sink:        b.Sink,
		Workers:     b.Chase.Workers,
		Certify:     b.Certify,
		Chase:       b.Chase,
		ModelSearch: b.ModelSearch,
		FiniteDB:    b.FiniteDB,
	}
	opt.Completion.Governor = b.completionGovernor()
	return opt
}

// VerdictOf maps a portfolio verdict onto the core vocabulary.
func VerdictOf(v portfolio.Verdict) Verdict {
	switch v {
	case portfolio.Implied:
		return Implied
	case portfolio.FiniteCounterexample:
		return FiniteCounterexample
	default:
		return Unknown
	}
}

// inferPortfolioDeepening is the adaptive body of InferDeepening: rounds
// of portfolio runs under geometrically growing arm ceilings, with the
// learned allocation state (portfolio Memory) and the chase snapshot
// carried from round to round, so a later round neither re-learns that
// the chase wants tuples faster than rounds nor re-derives the chase
// prefix.
func inferPortfolioDeepening(deps []*td.TD, d0 *td.TD, opt DeepeningOptions, g *budget.Governor) (InferenceResult, int, error) {
	b := opt.Initial
	chaseRounds, chaseTuples, fdbSize, fdbNodes := 2, 32, 1, 1024
	if ig := b.Chase.Governor; ig != nil {
		if n := ig.Limit(budget.Rounds); n > 0 {
			chaseRounds = n
		}
		if n := ig.Limit(budget.Tuples); n > 0 {
			chaseTuples = n
		}
	}
	if b.FiniteDB.Sizes.Hi > 0 {
		fdbSize = b.FiniteDB.Sizes.Hi
	}
	if ig := b.FiniteDB.Governor; ig != nil && ig.Limit(budget.Nodes) > 0 {
		fdbNodes = ig.Limit(budget.Nodes)
	}
	var last InferenceResult
	var mem *portfolio.Memory
	var carry *chase.State
	rounds := 0
	for round := 1; ; round++ {
		if o := g.Charge(budget.Rounds, 1); o.Stopped() {
			return last, rounds, nil
		}
		rounds = round
		po := b.PortfolioOptions()
		// The deepening governor's rounds meter counts DEEPENING rounds;
		// the portfolio must not drain it with chase rounds, so the parent
		// pool is a meterless child sharing only the cancellation context.
		po.Governor = g.Child(budget.Limits{})
		po.Chase.Governor = budget.New(nil, budget.Limits{Rounds: chaseRounds, Tuples: chaseTuples})
		po.FiniteDB.Governor = budget.New(nil, budget.Limits{Nodes: fdbNodes})
		po.FiniteDB.Sizes = budget.Range{Lo: 1, Hi: fdbSize}
		po.Chase.CaptureState = true
		po.Chase.WarmState = carry
		po.Memory = mem
		res, err := portfolio.Infer(deps, d0, po)
		if err != nil {
			return InferenceResult{}, round, err
		}
		mem = res.Memory
		if res.Chase != nil && res.Chase.State != nil {
			carry = res.Chase.State
		}
		last = InferenceResult{Verdict: VerdictOf(res.Verdict), Chase: res.Chase, Counterexample: res.Counterexample, cert: res.Cert()}
		b.emit(obs.Event{Type: obs.EvDeepenRound, Round: round, Verdict: last.Verdict.String()})
		if last.Verdict != Unknown || g.Interrupted().Stopped() {
			return last, round, nil
		}
		chaseRounds *= 2
		chaseTuples *= 4
		fdbSize++
		fdbNodes *= 4
	}
}
