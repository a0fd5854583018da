package portfolio

import (
	"templatedep/internal/budget"
	"templatedep/internal/cert"
	"templatedep/internal/chase"
	"templatedep/internal/core"
	"templatedep/internal/td"
)

// This file attaches certificates to definitive portfolio results. The
// portfolio's arms are optimized for finding verdicts, not proofs: the
// chase arm runs untraced (tracing makes warm-state snapshots ineligible),
// and the kb arm has no replayable proof object at all. A
// finite-counterexample win always has its database in hand, so it
// serializes directly; an Implied win is certified by a deterministic
// traced chase replay under generous fresh limits — the chase semidecides
// IMPL, so a sound Implied verdict replays to the same answer, and the
// validated trace is the certificate. The replay runs under the parent
// pool's context, so a cancelled or expired run keeps its verdict and
// gets no certificate instead of a replay that outlives it.

// certify writes res.cert for a definitive verdict. doc must describe the
// problem (deps, d0) the run answered; for presentation runs it embeds the
// ORIGINAL presentation and (deps, d0) are the reduction's. parent is the
// run's parent pool (Budget.Governor).
func certify(parent *budget.Governor, res *Result, doc cert.Problem, deps []*td.TD, d0 *td.TD) {
	switch res.Verdict {
	case core.Implied:
		if res.Winner == "chase" && res.Chase != nil && len(res.Chase.Trace) > 0 {
			res.cert = cert.NewChase(doc, res.Chase.Trace)
			return
		}
		ctx := budget.Resolve(parent, budget.Limits{}).Context()
		res.cert = cert.CertifyImplied(ctx, doc, deps, d0, replayLimits(res))
	case core.FiniteCounterexample:
		if res.CounterModel != nil {
			res.cert = cert.NewFiniteModel(doc, res.CounterModel.Instance, res.Witness)
			return
		}
		if res.Counterexample != nil {
			res.cert = cert.NewFiniteModel(doc, res.Counterexample, nil)
		}
	}
}

// replayLimits sizes the certifying replay from the chase arm's final
// cumulative grants, with margin (the winning verdict may have come from
// kb, which the chase was trailing), floored at the chase defaults.
func replayLimits(res *Result) budget.Limits {
	l := chase.DefaultLimits
	for _, a := range res.Arms {
		if a.Name != "chase" {
			continue
		}
		if r := a.Grants.Of(budget.Rounds); 2*r+4 > l.Rounds {
			l.Rounds = 2*r + 4
		}
		if t := a.Grants.Of(budget.Tuples); 4*t+1024 > l.Tuples {
			l.Tuples = 4*t + 1024
		}
	}
	return l
}
