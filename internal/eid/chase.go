package eid

import (
	"fmt"

	"templatedep/internal/budget"
	"templatedep/internal/relation"
	"templatedep/internal/tableau"
)

// The EID chase generalizes the TD chase of package chase: a trigger is a
// match of an EID's antecedents that does not extend to a joint match of
// ALL conclusion atoms; firing it adds every conclusion atom at once, with
// the existential variables shared across atoms bound to the same fresh
// values. Everything else (fair rounds, budgets, three-valued verdicts)
// mirrors the TD engine.

// Options bounds an EID chase run.
type Options struct {
	// Governor bounds the run exactly like the TD engine's: rounds and
	// tuples meters, context checked once per fair round. Nil resolves to
	// DefaultLimits.
	Governor *budget.Governor
}

// DefaultLimits mirror the TD chase defaults: 64 fair rounds, 100000
// tuples.
var DefaultLimits = budget.Limits{Rounds: 64, Tuples: 100000}

// Verdict is the three-valued implication outcome.
type Verdict int

const (
	// Unknown means budgets ran out.
	Unknown Verdict = iota
	// Implied means the dependency set logically implies the goal.
	Implied
	// NotImplied means a fixpoint was reached without the goal: the
	// fixpoint is a finite counterexample.
	NotImplied
)

func (v Verdict) String() string {
	switch v {
	case Implied:
		return "implied"
	case NotImplied:
		return "not-implied"
	default:
		return "unknown"
	}
}

// Result reports an EID chase run.
type Result struct {
	Verdict         Verdict
	Instance        *relation.Instance
	FixpointReached bool
	// Budget reports how the governor cut the run short; zero (ok) means
	// the chase finished on its own.
	Budget      budget.Outcome
	Rounds      int
	TuplesAdded int
}

// Chase closes start (cloned) under the EIDs, evaluating goal after every
// round when non-nil.
func Chase(deps []*EID, start *relation.Instance, goal func(*relation.Instance) bool, opt Options) (Result, error) {
	g := budget.Resolve(opt.Governor, DefaultLimits)
	tupleCap := g.Limit(budget.Tuples)
	for i, d := range deps {
		if !d.Schema().Equal(start.Schema()) {
			return Result{}, fmt.Errorf("eid: dependency %d has a different schema", i)
		}
	}
	inst := start.Clone()
	res := Result{Instance: inst}
	if goal != nil && goal(inst) {
		res.Verdict = Implied
		return res, nil
	}
	// Scratch for materializing conclusion atoms, reused across triggers
	// instead of cloning the assignment per fired trigger.
	bound := make([]tableau.Assignment, len(deps))
	for i, d := range deps {
		bound[i] = tableau.NewAssignment(d.tab)
	}
	for round := 1; ; round++ {
		if o := g.Charge(budget.Rounds, 1); o.Stopped() {
			res.Verdict = Unknown
			res.Budget = o
			return res, nil
		}
		res.Rounds = round
		var adds []relation.Tuple
		// Mirrors the TD chase's in-round checkpoints: one round can
		// diverge on an unbounded instance, so every batch of enumerated
		// triggers polls the context and aborts the join.
		const interruptBatch = 4096
		seen := 0
		var stopped budget.Outcome
		for di, d := range deps {
			d.tab.EachPrefixHomomorphism(inst, nil, d.numAnte, func(as tableau.Assignment) bool {
				seen++
				if seen%interruptBatch == 0 {
					if o := g.Interrupted(); o.Stopped() {
						stopped = o
						return false
					}
				}
				if d.tab.HasHomomorphism(inst, as) {
					return true // conclusion already jointly witnessed
				}
				// Materialize all conclusion atoms with shared fresh values.
				b := bound[di]
				for a := range as {
					copy(b[a], as[a])
				}
				for ci := 0; ci < d.NumConclusions(); ci++ {
					row := d.Conclusion(ci)
					tup := make(relation.Tuple, len(row))
					for a, v := range row {
						if b[a][v] == tableau.Unbound {
							b[a][v] = inst.FreshValue(relation.Attr(a))
						}
						tup[a] = b[a][v]
					}
					adds = append(adds, tup)
				}
				return true
			})
			if stopped.Stopped() {
				break
			}
		}
		if stopped.Stopped() {
			res.Verdict = Unknown
			res.Budget = stopped
			return res, nil
		}
		if len(adds) == 0 {
			res.FixpointReached = true
			if goal == nil {
				res.Verdict = Unknown
			} else {
				res.Verdict = NotImplied
			}
			return res, nil
		}
		addedRound := 0
		for ai, tup := range adds {
			if tupleCap > 0 && inst.Len() >= tupleCap {
				res.Verdict = Unknown
				res.Budget = budget.Exhausted(budget.Tuples)
				g.Add(budget.Tuples, addedRound)
				return res, nil
			}
			if ai%interruptBatch == interruptBatch-1 {
				if o := g.Interrupted(); o.Stopped() {
					res.Verdict = Unknown
					res.Budget = o
					g.Add(budget.Tuples, addedRound)
					return res, nil
				}
			}
			if _, added, err := inst.Add(tup); err != nil {
				return Result{}, err
			} else if added {
				res.TuplesAdded++
				addedRound++
			}
		}
		g.Add(budget.Tuples, addedRound)
		if goal != nil && goal(inst) {
			res.Verdict = Implied
			return res, nil
		}
	}
}

// Implies semidecides whether deps logically imply goal, by chasing the
// goal's frozen antecedents and watching for a joint match of all its
// conclusion atoms.
func Implies(deps []*EID, goal *EID, opt Options) (Result, error) {
	// Freeze the goal's antecedents with the identity assignment.
	inst := relation.NewInstance(goal.Schema())
	seed := tableau.NewAssignment(goal.tab)
	for ri := 0; ri < goal.numAnte; ri++ {
		row := goal.tab.Row(ri)
		tup := make(relation.Tuple, len(row))
		for a, v := range row {
			tup[a] = relation.Value(v)
			seed[a][v] = relation.Value(v)
		}
		inst.MustAdd(tup)
	}
	check := func(cur *relation.Instance) bool {
		return goal.tab.HasHomomorphism(cur, seed)
	}
	return Chase(deps, inst, check, opt)
}
