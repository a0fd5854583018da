package chase

import (
	"testing"

	"templatedep/internal/relation"
	"templatedep/internal/tableau"
	"templatedep/internal/td"
)

// goalWitness is the predicate ValidateTrace checks a proof of goal against.
func goalWitness(goal *td.TD) func(*relation.Instance) bool {
	_, as := goal.FrozenAntecedents()
	return func(inst *relation.Instance) bool {
		return tableau.RowSatisfiable(goal.Conclusion(), as, inst)
	}
}

// proveImplies runs Implies and, on an Implied verdict, validates the run's
// proof independently.
func proveImplies(t *testing.T, deps []*td.TD, goal *td.TD, opt Options) Result {
	t.Helper()
	res, err := Implies(deps, goal, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict == Implied {
		frozen, _ := goal.FrozenAntecedents()
		if err := ValidateTrace(deps, frozen, res.Proof(), goalWitness(goal)); err != nil {
			t.Fatalf("proof failed validation: %v", err)
		}
	}
	return res
}

func TestProveImpliesValidates(t *testing.T) {
	s := threeCol()
	join := td.MustParse(s, "R(a, b, c) & R(a, b', c') -> R(a, b, c')", "join")
	goal := td.MustParse(s, "R(a, b, c) & R(a, b', c') & R(a, b'', c'') -> R(a, b, c'')", "goal")
	res := proveImplies(t, []*td.TD{join}, goal, Options{})
	if res.Verdict != Implied {
		t.Fatalf("verdict %v", res.Verdict)
	}
	if len(res.Proof()) == 0 {
		t.Fatal("no proof")
	}
}

func TestProveImpliesEmbedded(t *testing.T) {
	_, fig1 := td.GarmentExample()
	res := proveImplies(t, []*td.TD{fig1}, fig1, Options{})
	if res.Verdict != Implied {
		t.Fatalf("verdict %v", res.Verdict)
	}
}

func TestValidateTraceRejectsForgery(t *testing.T) {
	s := threeCol()
	join := td.MustParse(s, "R(a, b, c) & R(a, b', c') -> R(a, b, c')", "join")
	goal := td.MustParse(s, "R(a, b, c) & R(a, b', c') & R(a, b'', c'') -> R(a, b, c'')", "goal")
	res, err := Implies([]*td.TD{join}, goal, Options{})
	if err != nil || res.Verdict != Implied {
		t.Fatal("setup")
	}
	frozen, _ := goal.FrozenAntecedents()
	check := goalWitness(goal)
	proof := res.Proof()
	// The genuine proof validates.
	if err := ValidateTrace([]*td.TD{join}, frozen, proof, check); err != nil {
		t.Fatalf("genuine proof rejected: %v", err)
	}
	// Forgery 1: unjustified tuple (values no trigger could produce).
	forged := append([]Fired(nil), proof...)
	forged[0] = Fired{Dep: 0, Round: 1, Tuple: relation.Tuple{40, 41, 42}}
	if err := ValidateTrace([]*td.TD{join}, frozen, forged, check); err == nil {
		t.Error("forged tuple accepted")
	}
	// Forgery 2: out-of-range dependency index.
	forged2 := append([]Fired(nil), proof...)
	forged2[0].Dep = 7
	if err := ValidateTrace([]*td.TD{join}, frozen, forged2, check); err == nil {
		t.Error("bad dep index accepted")
	}
	// Forgery 3: a step that adds nothing (its tuple is already present).
	forged3 := append([]Fired{proof[0]}, proof...)
	if err := ValidateTrace([]*td.TD{join}, frozen, forged3, check); err == nil {
		t.Error("non-adding step accepted")
	}
	// Forgery 4: drop the steps so the goal is never reached.
	if err := ValidateTrace([]*td.TD{join}, frozen, nil, check); err == nil {
		t.Error("empty trace accepted as proof")
	}
	// Forgery 5: wrong tuple width.
	forged5 := append([]Fired(nil), proof...)
	forged5[0].Tuple = relation.Tuple{1}
	if err := ValidateTrace([]*td.TD{join}, frozen, forged5, check); err == nil {
		t.Error("wrong-width tuple accepted")
	}
}

func TestProveImpliesNotImpliedPassesThrough(t *testing.T) {
	s := threeCol()
	join := td.MustParse(s, "R(a, b, c) & R(a, b', c') -> R(a, b, c')", "join")
	goal := td.MustParse(s, "R(a, b, c) & R(a', b', c') -> R(a, b, c')", "goal")
	res := proveImplies(t, []*td.TD{join}, goal, Options{})
	if res.Verdict != NotImplied {
		t.Errorf("verdict %v", res.Verdict)
	}
}
