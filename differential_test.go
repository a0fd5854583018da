package templatedep_test

import (
	"testing"

	"templatedep/internal/budget"
	"templatedep/internal/reduction"
	"templatedep/internal/words"
)

// The semi-naive delta join must be semantics-preserving on the paper's own
// workload. On the F3 presentations (D1..D4 + D0 built by the Reduction
// Theorem), chase.Implies agrees with eid.Chase, which re-joins the whole
// instance every round, in verdict, budget outcome, rounds, tuples and (up
// to null naming) instance.
func TestImpliesVerdictsIdenticalAcrossJoins(t *testing.T) {
	limits := budget.Limits{Rounds: 12, Tuples: 60000}
	for _, tc := range []struct {
		name string
		p    *words.Presentation
	}{
		{"twostep", words.TwoStepPresentation()},
		{"power", words.PowerPresentation()},
		{"chain2", words.ChainPresentation(2)},
		{"nilpotent2", words.NilpotentSafePresentation(2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := reduction.MustBuild(tc.p)
			for _, d := range chaseDifferences(t, in.D, in.D0, limits) {
				t.Error(d)
			}
		})
	}
}
