package chase

import (
	"testing"

	"templatedep/internal/relation"
	"templatedep/internal/td"
)

func TestImpliesSet(t *testing.T) {
	s := threeCol()
	join := td.MustParse(s, "R(a, b, c) & R(a, b', c') -> R(a, b, c')", "join")
	g1 := td.MustParse(s, "R(a, b, c) & R(a, b', c') & R(a, b'', c'') -> R(a, b, c'')", "g1")
	g2 := td.MustParse(s, "R(a, b, c) & R(a', b', c') -> R(a, b, c')", "g2")
	v, err := ImpliesSet([]*td.TD{join}, []*td.TD{g1}, Options{})
	if err != nil || v != Implied {
		t.Errorf("ImpliesSet = %v, %v", v, err)
	}
	v, err = ImpliesSet([]*td.TD{join}, []*td.TD{g1, g2}, Options{})
	if err != nil || v != NotImplied {
		t.Errorf("ImpliesSet with refuted member = %v, %v", v, err)
	}
	v, err = ImpliesSet(nil, nil, Options{})
	if err != nil || v != Implied {
		t.Errorf("empty goals = %v, %v", v, err)
	}
}

func TestEquivalentSets(t *testing.T) {
	s := threeCol()
	join := td.MustParse(s, "R(a, b, c) & R(a, b', c') -> R(a, b, c')", "join")
	triple := td.MustParse(s, "R(a, b, c) & R(a, b', c') & R(a, b'', c'') -> R(a, b, c'')", "triple")
	v, err := Equivalent([]*td.TD{join}, []*td.TD{join, triple}, Options{})
	if err != nil || v != Implied {
		t.Errorf("Equivalent = %v, %v", v, err)
	}
	other := td.MustParse(s, "R(a, b, c) & R(a', b', c') -> R(a, b, c')", "other")
	v, err = Equivalent([]*td.TD{join}, []*td.TD{other}, Options{})
	if err != nil || v != NotImplied {
		t.Errorf("inequivalent sets = %v, %v", v, err)
	}
}

func TestRedundantMembers(t *testing.T) {
	s := threeCol()
	deps, err := td.ParseSet(s, `
join:   R(a, b, c) & R(a, b', c') -> R(a, b, c')
triple: R(a, b, c) & R(a, b', c') & R(a, b'', c'') -> R(a, b, c'')
other:  R(a, b, c) & R(a', b, c') -> R(a, b, c')
`)
	if err != nil {
		t.Fatal(err)
	}
	red, err := RedundantMembers(deps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// join and triple are mutually equivalent (a homomorphism may collapse
	// two of triple's antecedents onto one tuple, degenerating it to join),
	// so the greedy scan removes exactly the FIRST of the pair.
	if len(red) != 1 || red[0] != 0 {
		t.Errorf("redundant = %v, want [0] (join, subsumed by triple)", red)
	}
}

func TestMinimizeAntecedents(t *testing.T) {
	s := threeCol()
	// The triple goal carries a genuinely redundant middle antecedent:
	// R(a,b',c') is unused by the conclusion and not needed as a premise.
	bloated := td.MustParse(s, "R(a, b, c) & R(a, b', c') & R(a, b'', c'') -> R(a, b, c'')", "bloated")
	min, err := MinimizeAntecedents(bloated, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if min.NumAntecedents() >= bloated.NumAntecedents() {
		t.Fatalf("no antecedent removed: %d", min.NumAntecedents())
	}
	// Equivalence is preserved.
	v, err := Equivalent([]*td.TD{bloated}, []*td.TD{min}, Options{})
	if err != nil || v != Implied {
		t.Errorf("minimized TD not equivalent: %v, %v", v, err)
	}
	if min.Name() != "bloated-min" {
		t.Errorf("name %q", min.Name())
	}
}

func TestMinimizeAntecedentsKeepsEssentialRows(t *testing.T) {
	s := threeCol()
	// fig1-style: both antecedents are essential (the conclusion pairs
	// variables from the two rows).
	fig1 := td.MustParse(s, "R(a, b, c) & R(a, b', c') -> R(a*, b, c')", "fig1")
	min, err := MinimizeAntecedents(fig1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if min.NumAntecedents() != 2 {
		t.Errorf("essential rows removed: %d antecedents left", min.NumAntecedents())
	}
	if min != fig1 {
		t.Error("unchanged TD should be returned as-is")
	}
}

func TestMinimizeAntecedentsDoesNotTrivializeViaExistentials(t *testing.T) {
	s := relation.MustSchema("A", "B")
	// d: R(a,b) & R(a',b') -> R(a', b). Removing row 2 existentializes a'
	// and yields the TRIVIAL R(a,b) -> R(x, b), which is NOT equivalent —
	// the minimizer must keep both rows.
	d := td.MustParse(s, "R(a, b) & R(a', b') -> R(a', b)", "d")
	min, err := MinimizeAntecedents(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if min.NumAntecedents() != 2 {
		t.Fatalf("minimizer trivialized the TD: %s", min.Format())
	}
}

func TestMinimizeDuplicateAntecedent(t *testing.T) {
	s := relation.MustSchema("A", "B")
	// A literally duplicated antecedent row is always removable.
	d := td.MustParse(s, "R(a, b) & R(a, b) & R(a', b) -> R(a', b)", "dup")
	min, err := MinimizeAntecedents(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if min.NumAntecedents() > 2 {
		t.Errorf("duplicate antecedent kept: %d rows", min.NumAntecedents())
	}
}
