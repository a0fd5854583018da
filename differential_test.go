package templatedep_test

import (
	"reflect"
	"templatedep/internal/budget"
	"testing"

	"templatedep/internal/chase"
	"templatedep/internal/reduction"
	"templatedep/internal/words"
)

// The semi-naive delta join must be semantics-preserving on the paper's own
// workload. On the F3 presentations (D1..D4 + D0 built by the Reduction
// Theorem), chase.Implies agrees with eid.Chase, which re-joins the whole
// instance every round, in verdict, budget outcome, rounds, tuples and (up
// to null naming) instance. And the delta join split into shards (Workers
// 2) is bit-identical to the unsharded one in verdict and every work
// statistic: the two enumerate the same triggers in the same rounds.
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
			run := func(workers int) chase.Result {
				res, err := chase.Implies(in.D, in.D0, chase.Options{
					Governor: budget.New(nil, limits), Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			rs, rp := run(1), run(2)
			if rs.Verdict != rp.Verdict {
				t.Fatalf("verdicts differ: unsharded %v, sharded %v", rs.Verdict, rp.Verdict)
			}
			if !reflect.DeepEqual(rs.Stats, rp.Stats) {
				t.Errorf("stats differ: unsharded %+v, sharded %+v", rs.Stats, rp.Stats)
			}
			if rs.Instance.Len() != rp.Instance.Len() {
				t.Errorf("instance sizes differ: unsharded %d, sharded %d", rs.Instance.Len(), rp.Instance.Len())
			}
		})
	}
}
