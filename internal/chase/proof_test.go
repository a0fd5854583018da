package chase

import (
	"testing"

	"templatedep/internal/relation"
	"templatedep/internal/tableau"
	"templatedep/internal/td"
)

func TestProveImpliesValidates(t *testing.T) {
	s := threeCol()
	join := td.MustParse(s, "R(a, b, c) & R(a, b', c') -> R(a, b, c')", "join")
	goal := td.MustParse(s, "R(a, b, c) & R(a, b', c') & R(a, b'', c'') -> R(a, b, c'')", "goal")
	res, err := ProveImplies([]*td.TD{join}, goal, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Implied {
		t.Fatalf("verdict %v", res.Verdict)
	}
	if len(res.Trace) == 0 {
		t.Fatal("no trace")
	}
}

func TestProveImpliesEmbedded(t *testing.T) {
	_, fig1 := td.GarmentExample()
	res, err := ProveImplies([]*td.TD{fig1}, fig1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Implied {
		t.Fatalf("verdict %v", res.Verdict)
	}
}

func TestValidateTraceRejectsForgery(t *testing.T) {
	s := threeCol()
	join := td.MustParse(s, "R(a, b, c) & R(a, b', c') -> R(a, b, c')", "join")
	goal := td.MustParse(s, "R(a, b, c) & R(a, b', c') & R(a, b'', c'') -> R(a, b, c'')", "goal")
	opt := Options{}
	opt.Trace = true
	res, err := Implies([]*td.TD{join}, goal, opt)
	if err != nil || res.Verdict != Implied {
		t.Fatal("setup")
	}
	frozen, as := goal.FrozenAntecedents()
	concl := goal.Conclusion()
	check := func(inst *relation.Instance) bool {
		return tableau.RowSatisfiable(concl, as, inst)
	}
	// The genuine trace validates.
	if err := ValidateTrace([]*td.TD{join}, frozen, res.Trace, check); err != nil {
		t.Fatalf("genuine trace rejected: %v", err)
	}
	// Forgery 1: unjustified tuple (values no trigger could produce).
	forged := append([]Fired(nil), res.Trace...)
	forged[0] = Fired{Dep: 0, Round: 1, Tuple: relation.Tuple{40, 41, 42}, Added: true}
	if err := ValidateTrace([]*td.TD{join}, frozen, forged, check); err == nil {
		t.Error("forged tuple accepted")
	}
	// Forgery 2: out-of-range dependency index.
	forged2 := append([]Fired(nil), res.Trace...)
	forged2[0].Dep = 7
	if err := ValidateTrace([]*td.TD{join}, frozen, forged2, check); err == nil {
		t.Error("bad dep index accepted")
	}
	// Forgery 3: wrong Added flag.
	forged3 := append([]Fired(nil), res.Trace...)
	forged3[0].Added = !forged3[0].Added
	if err := ValidateTrace([]*td.TD{join}, frozen, forged3, check); err == nil {
		t.Error("wrong Added flag accepted")
	}
	// Forgery 4: drop the steps so the goal is never reached.
	if err := ValidateTrace([]*td.TD{join}, frozen, nil, check); err == nil {
		t.Error("empty trace accepted as proof")
	}
	// Forgery 5: wrong tuple width.
	forged5 := append([]Fired(nil), res.Trace...)
	forged5[0].Tuple = relation.Tuple{1}
	if err := ValidateTrace([]*td.TD{join}, frozen, forged5, check); err == nil {
		t.Error("wrong-width tuple accepted")
	}
}

func TestProveImpliesNotImpliedPassesThrough(t *testing.T) {
	s := threeCol()
	join := td.MustParse(s, "R(a, b, c) & R(a, b', c') -> R(a, b, c')", "join")
	goal := td.MustParse(s, "R(a, b, c) & R(a', b', c') -> R(a, b, c')", "goal")
	res, err := ProveImplies([]*td.TD{join}, goal, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != NotImplied {
		t.Errorf("verdict %v", res.Verdict)
	}
}
