package words

import (
	"math/rand"
	"templatedep/internal/budget"
	"testing"
	"testing/quick"
)

func TestNormalizeAlreadyTwoOne(t *testing.T) {
	p := PowerPresentation()
	n, err := Normalize(p)
	if err != nil {
		t.Fatal(err)
	}
	if !n.Presentation.IsTwoOne() {
		t.Fatal("not (2,1)")
	}
	if n.GoalForced {
		t.Error("GoalForced should be false")
	}
	if len(n.Definitions) != 0 {
		t.Errorf("no fresh symbols expected, got %d", len(n.Definitions))
	}
	if err := n.Presentation.CheckZeroEquations(); err != nil {
		t.Error(err)
	}
}

func TestNormalizePaperExample(t *testing.T) {
	// The paper's example: replace ABC = DA by AB = E, DA = F, EC = F.
	a := MustAlphabet([]string{"A0", "A", "B", "C", "D", "0"}, "A0", "0")
	p, err := NewPresentation(a, []Equation{
		Eq(MustParseWord(a, "A B C"), MustParseWord(a, "D A")),
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := Normalize(p)
	if err != nil {
		t.Fatal(err)
	}
	if !n.Presentation.IsTwoOne() {
		t.Fatal("not (2,1)")
	}
	// Two fresh symbols: one for AB, one for DA.
	if len(n.Definitions) != 2 {
		t.Fatalf("fresh symbols = %d, want 2; defs %v", len(n.Definitions), n.Definitions)
	}
	wantDefs := map[string]bool{"AB": true, "DA": true}
	for s, d := range n.Definitions {
		if !wantDefs[d.Format(a)] {
			t.Errorf("unexpected definition %s := %s", n.Presentation.Alphabet.Name(s), d.Format(a))
		}
	}
}

func TestNormalizeLongBothSides(t *testing.T) {
	a := MustAlphabet([]string{"A0", "A", "B", "C", "D", "E", "F", "0"}, "A0", "0")
	p, err := NewPresentation(a, []Equation{
		Eq(MustParseWord(a, "A B C D"), MustParseWord(a, "E F A")),
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := Normalize(p)
	if err != nil {
		t.Fatal(err)
	}
	if !n.Presentation.IsTwoOne() {
		t.Fatal("not (2,1)")
	}
	// Prefixes AB, ABC (LHS chain) and EF, EFA (RHS chain): 4 fresh symbols.
	if len(n.Definitions) != 4 {
		t.Errorf("fresh symbols = %d, want 4", len(n.Definitions))
	}
	// Every definition must expand to a word over the ORIGINAL alphabet.
	for _, d := range n.Definitions {
		for _, s := range d {
			if !a.Contains(s) {
				t.Errorf("definition uses non-original symbol %d", s)
			}
		}
	}
}

func TestNormalizePrefixMemoization(t *testing.T) {
	// Two equations sharing the prefix AB should share the fresh symbol.
	a := MustAlphabet([]string{"A0", "A", "B", "C", "D", "0"}, "A0", "0")
	p, err := NewPresentation(a, []Equation{
		Eq(MustParseWord(a, "A B C"), MustParseWord(a, "D")),
		Eq(MustParseWord(a, "A B D"), MustParseWord(a, "C")),
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := Normalize(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Definitions) != 1 {
		t.Errorf("fresh symbols = %d, want 1 (shared AB)", len(n.Definitions))
	}
}

func TestNormalizeAliases(t *testing.T) {
	// A = B alias: substituted away, conservativity of derivability.
	a := MustAlphabet([]string{"A0", "A", "B", "0"}, "A0", "0")
	p, err := NewPresentation(a, []Equation{
		Eq(MustParseWord(a, "A"), MustParseWord(a, "B")),
		Eq(MustParseWord(a, "A A"), MustParseWord(a, "A0")),
		Eq(MustParseWord(a, "B B"), MustParseWord(a, "0")),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Original: A0 ~ AA ~ AB ~ BB ~ 0, so the goal is derivable.
	n, err := Normalize(p)
	if err != nil {
		t.Fatal(err)
	}
	if !n.Presentation.IsTwoOne() {
		t.Fatal("not (2,1)")
	}
	res := DeriveGoal(n.Presentation, ClosureOptions{})
	if res.Verdict != Derivable {
		t.Fatalf("goal should remain derivable after aliasing; got %v", res.Verdict)
	}
	// Alias map sends A and B to a common representative.
	sa, _ := a.Symbol("A")
	sb, _ := a.Symbol("B")
	if n.Aliases[sa] != n.Aliases[sb] {
		t.Error("A and B not unified")
	}
}

func TestNormalizeGoalForced(t *testing.T) {
	a := MustAlphabet([]string{"A0", "0"}, "A0", "0")
	p, err := NewPresentation(a, []Equation{
		Eq(MustParseWord(a, "A0"), MustParseWord(a, "0")),
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := Normalize(p)
	if err != nil {
		t.Fatal(err)
	}
	if !n.GoalForced {
		t.Fatal("GoalForced should be true")
	}
	if !n.Presentation.IsTwoOne() {
		t.Fatal("not (2,1)")
	}
	res := DeriveGoal(n.Presentation, ClosureOptions{})
	if res.Verdict != Derivable {
		t.Fatalf("goal must be derivable via the gadget; got %v", res.Verdict)
	}
}

// Property: normalization preserves derivability of the goal on random
// presentations (checked by running the closure on both and comparing when
// both give definite answers).
func TestNormalizePreservesDerivability(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := RandomPresentation(rng, 2, 3)
		// Random presentations are already (2,1); stretch one equation to
		// length 3 to force decomposition.
		if len(p.Equations) > 0 {
			e := p.Equations[0]
			p.Equations[0] = Eq(e.LHS.Concat(W(p.Alphabet.A0())), e.RHS)
		}
		n, err := Normalize(p)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		before := DeriveGoal(p, ClosureOptions{Governor: budget.New(nil, budget.Limits{Words: 1500}), LengthCap: 8})
		after := DeriveGoal(n.Presentation, ClosureOptions{Governor: budget.New(nil, budget.Limits{Words: 3000}), LengthCap: 10})
		if before.Verdict == Derivable && after.Verdict == NotDerivable {
			t.Logf("seed %d: derivable became not-derivable", seed)
			return false
		}
		if before.Verdict == NotDerivable && after.Verdict == Derivable {
			t.Logf("seed %d: not-derivable became derivable", seed)
			return false
		}
		if after.Verdict == Derivable {
			if err := after.Derivation.Validate(n.Presentation); err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Error(err)
	}
}

func TestExpandWordAndAliases(t *testing.T) {
	a := MustAlphabet([]string{"A0", "A", "B", "C", "0"}, "A0", "0")
	p, err := NewPresentation(a, []Equation{
		Eq(MustParseWord(a, "A B C"), MustParseWord(a, "A0")),
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := Normalize(p)
	if err != nil {
		t.Fatal(err)
	}
	// Find the fresh symbol for AB and expand a word containing it.
	var fresh Symbol = -1
	for s, d := range n.Definitions {
		if d.Format(a) == "AB" {
			fresh = s
		}
	}
	if fresh < 0 {
		t.Fatal("no fresh symbol for AB")
	}
	got := n.ExpandWord(W(fresh, a.MustSymbol("C")))
	if got.Format(a) != "ABC" {
		t.Errorf("ExpandWord = %q", got.Format(a))
	}
	// ApplyAliases is the identity here.
	w := MustParseWord(a, "A B")
	if !n.ApplyAliases(w).Equal(w) {
		t.Error("ApplyAliases should be identity without alias equations")
	}
}
