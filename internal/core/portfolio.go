package core

import "templatedep/internal/portfolio"

// This file bridges core's budget vocabulary onto internal/portfolio, the
// adaptive scheduler every TD-level and served inference runs through. The
// bridge owns the translation in both directions: a core Budget becomes
// portfolio Options (arm governors contribute their limits as hard
// ceilings, the run-wide governor becomes the parent pool), and a
// portfolio Verdict maps back onto the core one by construction — the two
// enums share values and strings.

// PortfolioOptions derives portfolio Options from the budget: each arm
// governor's limits become that arm's hard ceilings, the run-wide
// governor becomes the parent pool (its context cancels the portfolio at
// the next lease boundary, and its certifying replay; any meter it caps
// becomes shared headroom), and the sink and chase worker count thread
// through. Completion runs under the same bounded side-check governor as
// AnalyzePresentation's Knuth–Bendix fallback.
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
