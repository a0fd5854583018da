package portfolio

import (
	"fmt"

	"templatedep/internal/budget"
	"templatedep/internal/cert"
	"templatedep/internal/chase"
	"templatedep/internal/finitemodel"
	"templatedep/internal/reduction"
	"templatedep/internal/rewrite"
	"templatedep/internal/search"
	"templatedep/internal/td"
	"templatedep/internal/words"
)

// This file builds the individual arms. Each constructor fixes the arm's
// dominant meter, opening grants, and hard ceilings, and wraps the engine
// call in a closure that classifies the lease's health from the engine's
// own statistics. The health heuristics are deliberately local — an arm
// judges only its own meters — which is what keeps the reallocation
// sequence deterministic.

// armCeilings resolves an arm's hard ceilings: the limits of the governor
// the caller put in the engine options, or the engine defaults.
func armCeilings(g *budget.Governor, def budget.Limits) budget.Limits {
	if g != nil {
		return g.Limits()
	}
	return def
}

// rateHealth classifies a work-per-step rate against the arm's previous
// lease: a growing rate means the arm is diverging inside its lease
// (stalling), a clearly shrinking one means it is converging.
func rateHealth(rate float64, last *float64, has *bool) armHealth {
	defer func() { *last, *has = rate, true }()
	if !*has {
		return healthSteady
	}
	switch {
	case rate > *last*1.25:
		return healthStalling
	case rate < *last*0.80:
		return healthConverging
	default:
		return healthSteady
	}
}

// kbArm runs Knuth–Bendix completion on one persistent System. Rules are
// re-charged by Complete at the top of every call, so the lease's rules
// cap reads cumulatively; sweeps are charged per call, so the rounds cap
// is a per-lease sweep allowance (sweeps, unlike rules, are never
// re-done: the System keeps its progress between leases). A confluent
// system that decides the goal wins Implied; a confluent system that
// refutes it retires the arm with the definitive GoalRefuted flag.
func kbArm(sys *rewrite.System, opt Options, res *Result, scale int) *arm {
	a := &arm{
		name:  "kb",
		meter: budget.Rules,
		// The opening rules grant is proportional to the seeded system:
		// Complete re-charges the current rules at the top of every call,
		// and a completion that converges typically adds a fraction of the
		// seed before simplification shrinks it back.
		cur: budget.Limits{Rules: 2*len(sys.Rules) + 32*scale, Rounds: 6 * scale},
		max: armCeilings(opt.Completion.Governor, rewrite.DefaultLimits),
	}
	var lastRate float64
	var hasRate bool
	a.run = func(g *budget.Governor) (leaseResult, error) {
		before := len(sys.Rules)
		cres, err := sys.Complete(rewrite.CompletionOptions{Governor: g, Sink: opt.Sink})
		if err != nil {
			return leaseResult{}, err
		}
		if cres.Confluent {
			decided, err := sys.DecideGoal()
			if err != nil {
				return leaseResult{}, err
			}
			if decided {
				return leaseResult{win: Implied, verdict: "implied"}, nil
			}
			res.GoalRefuted = true
			return leaseResult{done: true, note: "refuted", verdict: "goal-refuted"}, nil
		}
		sweeps := cres.Iterations
		if sweeps < 1 {
			sweeps = 1
		}
		rate := float64(len(sys.Rules)-before) / float64(sweeps)
		return leaseResult{
			health:  rateHealth(rate, &lastRate, &hasRate),
			verdict: "diverged",
			outcome: cres.Budget,
		}, nil
	}
	return a
}

// chaseArm runs the TD chase with warm-state carry: each lease resumes
// the previous lease's snapshot when the budget-class rule allows, so the
// arm's meters stay cumulative without re-doing rounds. Tracing or
// history options make snapshots ineligible, in which case every lease
// re-runs cold under the bigger cumulative cap — same verdicts, more
// wall-clock.
func chaseArm(deps []*td.TD, d0 *td.TD, opt Options, res *Result, scale int) *arm {
	a := &arm{
		name:  "chase",
		meter: budget.Rounds,
		cur:   budget.Limits{Rounds: 2 * scale, Tuples: 8192 * scale},
		max:   armCeilings(opt.Chase.Governor, chase.DefaultLimits),
	}
	carry := opt.Chase.WarmState
	// A carried state is only reusable under a lease whose budget class
	// strictly dominates the one it stopped under; grow the opening grant
	// until it does (or the ceiling makes warm reuse impossible, in which
	// case the first lease falls back to a cold run).
	for carry != nil && !carry.ReusableUnder(a.cur) {
		grew := false
		for _, r := range []budget.Resource{budget.Rounds, budget.Tuples} {
			v := a.cur.Of(r)
			if m := a.max.Of(r); m <= 0 || v < m {
				nv := v * 2
				if m := a.max.Of(r); m > 0 && nv > m {
					nv = m
				}
				a.cur = a.cur.With(r, nv)
				grew = true
			}
		}
		if !grew {
			break
		}
	}
	var prevRounds, prevTuples int
	var lastRate float64
	var hasRate bool
	a.run = func(g *budget.Governor) (leaseResult, error) {
		co := opt.Chase
		co.Governor = g
		co.Workers = opt.Workers
		co.Sink = opt.Sink
		co.WarmState = carry
		co.CaptureState = true
		cres, err := chase.Implies(deps, d0, co)
		if err != nil {
			return leaseResult{}, err
		}
		res.Chase = &cres
		if cres.State != nil {
			carry = cres.State
		}
		switch cres.Verdict {
		case chase.Implied:
			return leaseResult{win: Implied, verdict: "implied"}, nil
		case chase.NotImplied:
			res.Counterexample = cres.Instance
			return leaseResult{win: FiniteCounterexample, verdict: "not-implied"}, nil
		}
		dr := cres.Stats.Rounds - prevRounds
		dt := cres.Stats.TuplesAdded - prevTuples
		prevRounds, prevTuples = cres.Stats.Rounds, cres.Stats.TuplesAdded
		if dr < 1 {
			dr = 1
		}
		rate := float64(dt) / float64(dr)
		return leaseResult{
			health:  rateHealth(rate, &lastRate, &hasRate),
			verdict: "unknown",
			outcome: cres.Budget,
		}, nil
	}
	return a
}

// modelSearchArm runs the finite counter-model search over a growing
// order window: each covered window advances Hi by one (structural
// progress, so the arm reports converging), and covering the caller's
// whole window retires the arm. Node exhaustion inside a window counts as
// stalling. Workers is pinned to 1: a parallel search stopped by a budget
// commits a scheduling-dependent node count, which would leak
// nondeterminism into the reallocation sequence.
func modelSearchArm(p *words.Presentation, in *reduction.Instance, opt Options, res *Result, scale int) *arm {
	window := opt.ModelSearch.Orders
	if window.Lo < 2 {
		window.Lo = 2
	}
	if window.Hi < window.Lo {
		window.Hi = search.DefaultOrders.Hi
	}
	a := &arm{
		name:  "model-search",
		meter: budget.Nodes,
		cur:   budget.Limits{Nodes: 2048 * scale},
		max:   armCeilings(opt.ModelSearch.Governor, search.DefaultLimits),
	}
	curHi := window.Lo
	a.run = func(g *budget.Governor) (leaseResult, error) {
		so := opt.ModelSearch
		so.Governor = g
		so.Workers = 1
		so.Sink = opt.Sink
		so.Orders = budget.Range{Lo: window.Lo, Hi: curHi}
		sres, err := search.FindCounterModel(p, so)
		if err != nil {
			return leaseResult{}, err
		}
		if sres.Interpretation != nil {
			cm, err := in.BuildCounterModel(sres.Interpretation)
			if err != nil {
				return leaseResult{}, err
			}
			if err := in.Verify(cm); err != nil {
				return leaseResult{}, fmt.Errorf("counter-model failed verification: %w", err)
			}
			res.Witness = sres.Interpretation
			res.CounterModel = cm
			return leaseResult{win: FiniteCounterexample, verdict: sres.Status()}, nil
		}
		if !sres.Budget.Stopped() {
			if curHi >= window.Hi {
				return leaseResult{done: true, note: "covered", verdict: sres.Status()}, nil
			}
			curHi++
			return leaseResult{health: healthConverging, verdict: sres.Status()}, nil
		}
		return leaseResult{health: healthStalling, verdict: sres.Status(), outcome: sres.Budget}, nil
	}
	return a
}

// finiteDBArm runs the finite-database enumerator over a growing size
// window, with the same window mechanics and Workers = 1 pinning as the
// model search.
func finiteDBArm(deps []*td.TD, d0 *td.TD, opt Options, res *Result, scale int) *arm {
	window := opt.FiniteDB.Sizes
	if window.Lo < 1 {
		window.Lo = 1
	}
	if window.Hi < window.Lo {
		window.Hi = finitemodel.DefaultSizes.Hi
	}
	a := &arm{
		name:  "finite-db",
		meter: budget.Nodes,
		cur:   budget.Limits{Nodes: 2048 * scale},
		max:   armCeilings(opt.FiniteDB.Governor, finitemodel.DefaultLimits),
	}
	curHi := window.Lo
	a.run = func(g *budget.Governor) (leaseResult, error) {
		fo := opt.FiniteDB
		fo.Governor = g
		fo.Workers = 1
		fo.Sink = opt.Sink
		fo.Sizes = budget.Range{Lo: window.Lo, Hi: curHi}
		fres, err := finitemodel.FindCounterexample(deps, d0, fo)
		if err != nil {
			return leaseResult{}, err
		}
		if fres.Instance != nil {
			res.Counterexample = fres.Instance
			return leaseResult{win: FiniteCounterexample, verdict: fres.Status()}, nil
		}
		if !fres.Budget.Stopped() {
			if curHi >= window.Hi {
				return leaseResult{done: true, note: "covered", verdict: fres.Status()}, nil
			}
			curHi++
			return leaseResult{health: healthConverging, verdict: fres.Status()}, nil
		}
		return leaseResult{health: healthStalling, verdict: fres.Status(), outcome: fres.Budget}, nil
	}
	return a
}

// scaleOf resolves Options.TickScale.
func scaleOf(opt Options) int {
	if opt.TickScale > 0 {
		return opt.TickScale
	}
	return 1
}

// AnalyzePresentation runs the presentation-level portfolio: Knuth–Bendix
// completion, the finite counter-model search, and the chase on the
// reduction's (D, D0), in that fixed scheduling order. Completion leads
// because a confluent system settles the word problem in one decision
// procedure call — the cheapest possible win when it exists — and the
// moment it completes, every other arm is retired in the same tick.
func AnalyzePresentation(p *words.Presentation, opt Options) (*Result, error) {
	in, err := reduction.Build(p)
	if err != nil {
		return nil, err
	}
	res := &Result{Instance: in}
	// A structural kb retirement carried in from a previous run keeps its
	// definitive meaning even though the arm will not run again.
	if opt.Memory != nil {
		if m, ok := opt.Memory.Arms["kb"]; ok && m.Done && m.Note == "refuted" {
			res.GoalRefuted = true
		}
	}
	scale := scaleOf(opt)
	arms := []*arm{
		kbArm(rewrite.FromPresentation(in.Pres), opt, res, scale),
		modelSearchArm(p, in, opt, res, scale),
		chaseArm(in.D, in.D0, opt, res, scale),
	}
	out, err := run(arms, opt, res)
	if err == nil && opt.Certify {
		certify(opt.Governor, out, cert.PresentationProblem(p), in.D, in.D0)
	}
	return out, err
}

// Infer runs the TD-level portfolio: the chase and the finite-database
// enumerator, in that fixed scheduling order. The chase leads because it
// is the only arm that can certify Implied with a proof trace and the
// only one that can snapshot across leases.
func Infer(deps []*td.TD, d0 *td.TD, opt Options) (*Result, error) {
	res := &Result{}
	scale := scaleOf(opt)
	arms := []*arm{
		chaseArm(deps, d0, opt, res, scale),
		finiteDBArm(deps, d0, opt, res, scale),
	}
	out, err := run(arms, opt, res)
	if err == nil && opt.Certify {
		certify(opt.Governor, out, cert.TDProblem(d0.Schema(), deps, d0), deps, d0)
	}
	return out, err
}
