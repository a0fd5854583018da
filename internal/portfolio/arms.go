package portfolio

import (
	"fmt"

	"templatedep/internal/budget"
	"templatedep/internal/chase"
	"templatedep/internal/core"
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

// derivationArm runs the equational closure (words.DeriveGoal) on the
// normalized presentation: a derivation of A0 = 0 wins Implied by
// Reduction Theorem (A), and is the run's certificate. Each lease re-runs
// the breadth-first closure under its cumulative words grant, inside a
// word-length window that opens at 8 and widens by 2 after every lease the
// window, not the words grant, cut short, up to the caller's LengthCap
// (zero or less means 12). A closure that exhausts A0's class with no
// expansion cut off refutes the goal, and so does a kb arm that already
// has; either retires the arm "refuted" with GoalRefuted set. A truncated
// class at the widest window retires it "covered".
func derivationArm(p *words.Presentation, b core.Budget, res *Result, scale int) *arm {
	widest := b.Closure.LengthCap
	if widest <= 0 {
		widest = 12
	}
	window := min(8, widest)
	a := &arm{
		name:        "derivation",
		meter:       budget.Words,
		cur:         budget.Limits{Words: 512 * scale},
		max:         armCeilings(b.Closure.Governor, words.DefaultLimits),
		derivesGoal: true,
	}
	a.run = func(g *budget.Governor) (leaseResult, error) {
		dres := words.DeriveGoal(p, words.ClosureOptions{Governor: g, LengthCap: window})
		verdict := dres.Verdict.String()
		switch {
		case dres.Verdict == words.Derivable:
			res.derivation = dres.Derivation
			return leaseResult{win: core.Implied, verdict: verdict}, nil
		case dres.Verdict == words.NotDerivable:
			res.GoalRefuted = true
			return leaseResult{done: true, note: "refuted", verdict: verdict}, nil
		case dres.Budget.Stopped():
			return leaseResult{health: healthStalling, verdict: verdict, outcome: dres.Budget}, nil
		case window >= widest:
			return leaseResult{done: true, note: "covered", verdict: verdict}, nil
		}
		window = min(window+2, widest)
		return leaseResult{health: healthConverging, verdict: verdict}, nil
	}
	return a
}

// kbArm runs Knuth–Bendix completion on one persistent System. Rules are
// re-charged by Complete at the top of every call, so the lease's rules
// cap reads cumulatively; sweeps are charged per call, so the rounds cap
// is a per-lease sweep allowance (sweeps, unlike rules, are never
// re-done: the System keeps its progress between leases). A confluent
// system that decides the goal wins Implied with its derivation of A0 = 0
// (rewrite.System.DecideGoal); a confluent system that refutes it retires
// the arm with the definitive GoalRefuted flag.
func kbArm(sys *rewrite.System, b core.Budget, res *Result, scale int) *arm {
	a := &arm{
		name:  "kb",
		meter: budget.Rules,
		// The opening rules grant is proportional to the seeded system:
		// Complete re-charges the current rules at the top of every call,
		// and a completion that converges typically adds a fraction of the
		// seed before simplification shrinks it back.
		cur: budget.Limits{Rules: 2*len(sys.Rules) + 32*scale, Rounds: 6 * scale},
		max: armCeilings(b.Completion.Governor, rewrite.DefaultLimits),
	}
	var lastRate float64
	var hasRate bool
	a.run = func(g *budget.Governor) (leaseResult, error) {
		before := len(sys.Rules)
		cres, err := sys.Complete(rewrite.CompletionOptions{Governor: g, Sink: b.Sink})
		if err != nil {
			return leaseResult{}, err
		}
		if cres.Confluent {
			decided, proof, err := sys.DecideGoal()
			if err != nil {
				return leaseResult{}, err
			}
			if decided {
				res.derivation = proof
				return leaseResult{win: core.Implied, verdict: "implied"}, nil
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

// chaseArm runs one chase of D0 that every lease resumes (chase.Run): a
// lease charges the rounds already done to its governor and continues from
// the last completed round, so the arm's meters stay cumulative without
// re-doing rounds, and the winning lease's Proof covers the whole run.
// problem yields (D, D0); the first lease calls it, once.
func chaseArm(problem func() ([]*td.TD, *td.TD, error), b core.Budget, res *Result, scale int) *arm {
	a := &arm{
		name:  "chase",
		meter: budget.Rounds,
		cur:   budget.Limits{Rounds: 2 * scale, Tuples: 8192 * scale},
		max:   armCeilings(b.Chase.Governor, chase.DefaultLimits),
	}
	// run is started by the first lease; Resume's precondition holds
	// because a.grown never shrinks a grant.
	var run *chase.Run
	var prevRounds, prevTuples int
	var lastRate float64
	var hasRate bool
	a.run = func(g *budget.Governor) (leaseResult, error) {
		if run == nil {
			deps, d0, err := problem()
			if err != nil {
				return leaseResult{}, err
			}
			co := b.Chase
			co.Sink = b.Sink
			e, err := chase.NewEngine(d0.Schema(), deps, co)
			if err != nil {
				return leaseResult{}, err
			}
			if run, err = e.Start(d0); err != nil {
				return leaseResult{}, err
			}
		}
		cres := run.Resume(g)
		res.Chase = &cres
		switch cres.Verdict {
		case chase.Implied:
			return leaseResult{win: core.Implied, verdict: "implied"}, nil
		case chase.NotImplied:
			res.Counterexample = cres.Instance
			return leaseResult{win: core.FiniteCounterexample, verdict: "not-implied"}, nil
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
// stalling. A win builds its Theorem (B) database over the reduction
// instance reduce returns.
func modelSearchArm(p *words.Presentation, reduce func() (*reduction.Instance, error), b core.Budget, res *Result, scale int) *arm {
	window := b.ModelSearch.Orders
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
		max:   armCeilings(b.ModelSearch.Governor, search.DefaultLimits),
	}
	curHi := window.Lo
	a.run = func(g *budget.Governor) (leaseResult, error) {
		so := b.ModelSearch
		so.Governor = g
		so.Sink = b.Sink
		so.Orders = budget.Range{Lo: window.Lo, Hi: curHi}
		sres, err := search.FindCounterModel(p, so)
		if err != nil {
			return leaseResult{}, err
		}
		if sres.Interpretation != nil {
			in, err := reduce()
			if err != nil {
				return leaseResult{}, err
			}
			cm, err := in.BuildCounterModel(sres.Interpretation)
			if err != nil {
				return leaseResult{}, err
			}
			if err := in.Verify(cm); err != nil {
				return leaseResult{}, fmt.Errorf("counter-model failed verification: %w", err)
			}
			res.Witness = sres.Interpretation
			res.CounterModel = cm
			return leaseResult{win: core.FiniteCounterexample, verdict: sres.Status()}, nil
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
// window, with the same window mechanics as the model search.
func finiteDBArm(deps []*td.TD, d0 *td.TD, b core.Budget, res *Result, scale int) *arm {
	window := b.FiniteDB.Sizes
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
		max:   armCeilings(b.FiniteDB.Governor, finitemodel.DefaultLimits),
	}
	curHi := window.Lo
	a.run = func(g *budget.Governor) (leaseResult, error) {
		fo := b.FiniteDB
		fo.Governor = g
		fo.Sink = b.Sink
		fo.Sizes = budget.Range{Lo: window.Lo, Hi: curHi}
		fres, err := finitemodel.FindCounterexample(deps, d0, fo)
		if err != nil {
			return leaseResult{}, err
		}
		if fres.Instance != nil {
			res.Counterexample = fres.Instance
			return leaseResult{win: core.FiniteCounterexample, verdict: fres.Status()}, nil
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

// parityArm tries the parity relations P_S as countermodels
// (finitemodel.FindParity): its opening grant covers every candidate, so
// its one lease either wins or retires the arm as covered. It shares the
// finite-db arm's ceilings, since both charge the same nodes meter.
func parityArm(deps []*td.TD, d0 *td.TD, b core.Budget, res *Result) *arm {
	a := &arm{
		name:  "parity",
		meter: budget.Nodes,
		cur:   budget.Limits{Nodes: 1<<d0.Schema().Width() - 1},
		max:   armCeilings(b.FiniteDB.Governor, finitemodel.DefaultLimits),
	}
	a.run = func(g *budget.Governor) (leaseResult, error) {
		fres, err := finitemodel.FindParity(deps, d0, g)
		if err != nil {
			return leaseResult{}, err
		}
		if fres.Instance != nil {
			res.Counterexample = fres.Instance
			return leaseResult{win: core.FiniteCounterexample, verdict: fres.Status()}, nil
		}
		if !fres.Budget.Stopped() {
			return leaseResult{done: true, note: "covered", verdict: fres.Status()}, nil
		}
		return leaseResult{health: healthStalling, verdict: fres.Status(), outcome: fres.Budget}, nil
	}
	return a
}

// AnalyzePresentation runs the presentation-level portfolio: the
// equational closure, Knuth–Bendix completion, the finite counter-model
// search, and the chase on the reduction's (D, D0), in that fixed
// scheduling order. The closure and completion run on the normalized
// presentation (reduction.Normalize): by Reduction Theorem (A) their
// derivation of A0 = 0 settles the run alone, so (D, D0) is built only
// when an arm needs it — at the chase's first lease, or for a model-search
// win's database — and Result.Instance stays nil after a derivation or kb
// win. The closure leads because it is the cheapest win on
// derivable presentations: its opening lease settles every derivable
// preset but collapse:3 and collapse:4, and it is the arm that settles the
// Turing-machine encodings, on which completion never becomes confluent.
// Completion follows: a confluent system settles the word problem in one
// decision procedure call, and the moment it completes, every other arm is
// retired in the same tick.
func AnalyzePresentation(p *words.Presentation, b core.Budget) (*Result, error) {
	return analyzePresentation(p, b, 1)
}

// analyzePresentation is AnalyzePresentation with every arm's opening
// grants multiplied by scale. Verdicts are invariant under the scale
// (leases grow geometrically either way); traces are not, since lease
// boundaries move.
func analyzePresentation(p *words.Presentation, b core.Budget, scale int) (*Result, error) {
	norm, err := reduction.Normalize(p)
	if err != nil {
		return nil, err
	}
	res := &Result{original: p, norm: norm}
	reduce := func() (*reduction.Instance, error) {
		if res.Instance == nil {
			in, err := reduction.Build(p)
			if err != nil {
				return nil, err
			}
			res.Instance = in
		}
		return res.Instance, nil
	}
	problem := func() ([]*td.TD, *td.TD, error) {
		in, err := reduce()
		if err != nil {
			return nil, nil, err
		}
		return in.D, in.D0, nil
	}
	arms := []*arm{
		derivationArm(norm, b, res, scale),
		kbArm(rewrite.FromPresentation(norm), b, res, scale),
		modelSearchArm(p, reduce, b, res, scale),
		chaseArm(problem, b, res, scale),
	}
	return run(arms, b, res)
}

// Infer runs the TD-level portfolio: the chase, the parity countermodels
// and the finite-database enumerator, in that fixed scheduling order. The
// chase leads because it is the only arm that can prove Implied and the
// only one that carries its work across leases; its opening lease settles
// most implied instances before the parity arm costs anything. The
// parity arm runs only when the goal's schema is at most
// finitemodel.ParityMaxWidth wide: at width 6 its 63 candidates of 32
// tuples, checked against the gap preset's reduction, made a tdinfer run
// 20 to 40 times slower (DESIGN.md §12).
func Infer(deps []*td.TD, d0 *td.TD, b core.Budget) (*Result, error) {
	res := &Result{deps: deps, d0: d0}
	problem := func() ([]*td.TD, *td.TD, error) { return deps, d0, nil }
	arms := []*arm{chaseArm(problem, b, res, 1)}
	if d0.Schema().Width() <= finitemodel.ParityMaxWidth {
		arms = append(arms, parityArm(deps, d0, b, res))
	}
	arms = append(arms, finiteDBArm(deps, d0, b, res, 1))
	return run(arms, b, res)
}
