package reduction

import (
	"fmt"
	"templatedep/internal/budget"
	"testing"

	"templatedep/internal/chase"
	"templatedep/internal/words"
)

// PlanChaseSteps translates an equational derivation of A0 = 0 into the
// dependency firings the chase must perform to simulate it, following the
// proof of part (A):
//
//   - a CONTRACTION step (x -> y, applying an equation AB = C left to
//     right) is simulated by one D1 firing: the AB-bridge segment forces
//     the C-apex;
//   - an EXPANSION step (y -> x, right to left) is simulated by D2 (create
//     the A-apex), D3 (create the B-apex), then D4 (merge their dangling
//     corners into the middle base point).
//
// The returned slice contains indices into Instance.D, in simulation order.
// TestChasePlanIsTraceSubsequence asserts that an actual chase proof fires
// exactly these dependencies in this relative order (interleaved with
// whatever else the fair rounds fire).
func (in *Instance) PlanChaseSteps(d *words.Derivation) ([]int, error) {
	if err := d.Validate(in.Pres); err != nil {
		return nil, fmt.Errorf("reduction: cannot plan from an invalid derivation: %w", err)
	}
	var plan []int
	for _, s := range d.Steps {
		base := 4 * s.Eq
		if base+3 >= len(in.D) {
			return nil, fmt.Errorf("reduction: step references equation %d beyond the dependency set", s.Eq)
		}
		if s.Forward {
			plan = append(plan, base) // D1
		} else {
			plan = append(plan, base+1, base+2, base+3) // D2, D3, D4
		}
	}
	return plan, nil
}

// isSubsequence reports whether want occurs as a (not necessarily
// contiguous) subsequence of got.
func isSubsequence(want, got []int) bool {
	i := 0
	for _, g := range got {
		if i < len(want) && want[i] == g {
			i++
		}
	}
	return i == len(want)
}

// TestChasePlanIsTraceSubsequence is the tightest correspondence test
// between the two layers of part (A): the dependency firings planned from
// the word derivation occur, in order, inside the actual chase proof trace.
func TestChasePlanIsTraceSubsequence(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    *words.Presentation
	}{
		{"twostep", words.TwoStepPresentation()},
		{"chain1", words.ChainPresentation(1)},
		{"chain2", words.ChainPresentation(2)},
	} {
		in := MustBuild(tc.p)
		dres := words.DeriveGoal(in.Pres, words.ClosureOptions{})
		if dres.Verdict != words.Derivable {
			t.Fatalf("%s: setup", tc.name)
		}
		plan, err := in.PlanChaseSteps(dres.Derivation)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		res, err := chase.Implies(in.D, in.D0, chase.Options{
			Governor: budget.New(nil, budget.Limits{Rounds: 32, Tuples: 200000}),
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Verdict != chase.Implied {
			t.Fatalf("%s: verdict %v", tc.name, res.Verdict)
		}
		proof := res.Proof()
		fired := make([]int, len(proof))
		for i, f := range proof {
			fired[i] = f.Dep
		}
		if !isSubsequence(plan, fired) {
			t.Errorf("%s: plan %v is not a subsequence of the %d-step trace",
				tc.name, plan, len(fired))
		}
	}
}

func TestPlanChaseStepsShape(t *testing.T) {
	p := words.TwoStepPresentation()
	in := MustBuild(p)
	dres := words.DeriveGoal(in.Pres, words.ClosureOptions{})
	plan, err := in.PlanChaseSteps(dres.Derivation)
	if err != nil {
		t.Fatal(err)
	}
	// A0 -> bc (expansion: D2, D3, D4 of eq 0) -> 0 (contraction: D1 of
	// eq 1): indices 1, 2, 3, 4.
	want := []int{1, 2, 3, 4}
	if len(plan) != len(want) {
		t.Fatalf("plan %v, want %v", plan, want)
	}
	for i := range want {
		if plan[i] != want[i] {
			t.Fatalf("plan %v, want %v", plan, want)
		}
	}
}

func TestPlanChaseStepsRejectsInvalid(t *testing.T) {
	p := words.TwoStepPresentation()
	in := MustBuild(p)
	bad := &words.Derivation{From: words.W(p.Alphabet.A0()), To: words.W(p.Alphabet.Zero())}
	if _, err := in.PlanChaseSteps(bad); err == nil {
		t.Error("invalid derivation accepted")
	}
}
