package templatedep_test

import (
	"reflect"
	"templatedep/internal/budget"
	"testing"

	"templatedep/internal/chase"
	"templatedep/internal/reduction"
	"templatedep/internal/words"
)

// The index-driven join must be semantics-preserving on the paper's own
// workload: chase.Implies verdicts on the F3 presentations (D1..D4 + D0
// built by the Reduction Theorem) are bit-identical between the optimized
// join and the naive scan, as are all work statistics — the two paths
// enumerate the same triggers in the same rounds.
func TestImpliesVerdictsIdenticalAcrossJoins(t *testing.T) {
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
			opt := chase.Options{Governor: budget.New(nil, budget.Limits{Rounds: 12, Tuples: 60000})}
			opt.Join = chase.JoinIndex
			ri, err := chase.Implies(in.D, in.D0, opt)
			if err != nil {
				t.Fatal(err)
			}
			opt.Join = chase.JoinScan
			rs, err := chase.Implies(in.D, in.D0, opt)
			if err != nil {
				t.Fatal(err)
			}
			if ri.Verdict != rs.Verdict {
				t.Fatalf("verdicts differ: index %v, scan %v", ri.Verdict, rs.Verdict)
			}
			if !reflect.DeepEqual(ri.Stats, rs.Stats) {
				t.Errorf("stats differ: index %+v, scan %+v", ri.Stats, rs.Stats)
			}
			if ri.Instance.Len() != rs.Instance.Len() {
				t.Errorf("instance sizes differ: index %d, scan %d", ri.Instance.Len(), rs.Instance.Len())
			}
		})
	}
}
