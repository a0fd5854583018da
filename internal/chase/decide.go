package chase

import (
	"fmt"

	"templatedep/internal/budget"
	"templatedep/internal/td"
)

// Decide is the DECISION procedure for implication from full template
// dependencies (Sadri–Ullman): when every member of deps is full, the chase
// never invents values, so the canonical database stays inside the frozen
// antecedents' active domain and the chase terminates. Decide computes the
// a-priori bound, runs the chase with it, and returns a two-valued answer —
// no Unknown. The goal d0 may be embedded; only deps must be full.
//
// The bound can be astronomically large in theory (the product of
// per-column active-domain sizes); Decide refuses instances whose bound
// exceeds maxTuples (default 1,000,000) rather than silently degrade to a
// semi-decision.
func Decide(deps []*td.TD, d0 *td.TD, maxTuples int) (bool, error) {
	if !AllFull(deps) {
		return false, fmt.Errorf("chase: Decide requires full dependencies; use Implies for embedded sets")
	}
	if maxTuples <= 0 {
		maxTuples = 1_000_000
	}
	frozen, _ := d0.FrozenAntecedents()
	// Upper bound on the terminating chase: every tuple draws its values
	// from the frozen active domains.
	bound := 1
	for _, a := range d0.Schema().Attrs() {
		n := frozen.ActiveDomainSize(a)
		if n == 0 {
			n = 1
		}
		if bound > maxTuples/n {
			return false, fmt.Errorf("chase: decision bound exceeds %d tuples; raise maxTuples", maxTuples)
		}
		bound *= n
	}
	// Rounds are bounded by tuples added + 1.
	res, err := Implies(deps, d0, Options{
		Governor: budget.New(nil, budget.Limits{
			Rounds: bound + 1,
			Tuples: bound + frozen.Len() + 1,
		}),
	})
	if err != nil {
		return false, err
	}
	switch res.Verdict {
	case Implied:
		return true, nil
	case NotImplied:
		return false, nil
	default:
		return false, fmt.Errorf("chase: internal error: bounded chase returned Unknown (rounds %d, tuples %d)",
			res.Stats.Rounds, res.Instance.Len())
	}
}
