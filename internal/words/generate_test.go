package words

import (
	"math/rand"
	"templatedep/internal/budget"
	"testing"
)

func TestChainPresentationShape(t *testing.T) {
	p := ChainPresentation(3)
	if !p.IsTwoOne() {
		t.Error("not (2,1)")
	}
	if err := p.CheckZeroEquations(); err != nil {
		t.Error(err)
	}
	// Alphabet: A0, s1, s2, k0, k1, k2, 0 = 7 symbols.
	if p.Alphabet.Size() != 7 {
		t.Errorf("alphabet size %d", p.Alphabet.Size())
	}
	// Degenerate argument is clamped to n=1: A0, k0, 0.
	if ChainPresentation(0).Alphabet.Size() != 3 {
		t.Error("clamp failed")
	}
}

func TestNilpotentSafePresentation(t *testing.T) {
	p := NilpotentSafePresentation(2)
	if !p.IsTwoOne() {
		t.Error("not (2,1)")
	}
	res := DeriveGoal(p, ClosureOptions{Governor: budget.New(nil, budget.Limits{Words: 5000})})
	// Definitional equations only: A0's class is infinite? A0 matches RHS
	// of no equation and LHS of none alone; expansions: B1 -> A0 A0 only
	// applies to words containing B1. The class of A0 is {A0}: definite no.
	if res.Verdict != NotDerivable {
		t.Errorf("verdict %v, want NotDerivable", res.Verdict)
	}
}

func TestPowerAndTwoStepAndGap(t *testing.T) {
	if got := DeriveGoal(PowerPresentation(), ClosureOptions{}).Verdict; got != NotDerivable {
		t.Errorf("power: %v", got)
	}
	if got := DeriveGoal(TwoStepPresentation(), ClosureOptions{}).Verdict; got != Derivable {
		t.Errorf("two-step: %v", got)
	}
	if got := DeriveGoal(IdempotentGapPresentation(), ClosureOptions{Governor: budget.New(nil, budget.Limits{Words: 300})}).Verdict; got != Unknown {
		t.Errorf("gap: %v", got)
	}
}

func TestPowerTowerPresentation(t *testing.T) {
	p := PowerTowerPresentation(2)
	if !p.IsTwoOne() {
		t.Error("not (2,1)")
	}
	if err := p.CheckZeroEquations(); err != nil {
		t.Error(err)
	}
	// Alphabet: A0, c1, c2, 0.
	if p.Alphabet.Size() != 4 {
		t.Errorf("alphabet size %d", p.Alphabet.Size())
	}
	// Definitional chain downward: A0's equational class stays {A0}.
	res := DeriveGoal(p, ClosureOptions{Governor: budget.New(nil, budget.Limits{Words: 5000})})
	if res.Verdict != NotDerivable {
		t.Errorf("verdict %v, want NotDerivable", res.Verdict)
	}
	if PowerTowerPresentation(0).Alphabet.Size() != 3 {
		t.Error("clamp failed")
	}
	if _, err := Preset("tower:2"); err != nil {
		t.Errorf("preset: %v", err)
	}
	if _, err := Preset("tower:x"); err == nil {
		t.Error("bad tower preset accepted")
	}
}

func TestRandomPresentationReproducible(t *testing.T) {
	p1 := RandomPresentation(rand.New(rand.NewSource(42)), 3, 5)
	p2 := RandomPresentation(rand.New(rand.NewSource(42)), 3, 5)
	if p1.Format() != p2.Format() {
		t.Error("same seed should give same presentation")
	}
	if err := p1.CheckZeroEquations(); err != nil {
		t.Error(err)
	}
	if !p1.IsTwoOne() {
		t.Error("random presentation should be (2,1)")
	}
}
