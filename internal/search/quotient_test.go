package search

import (
	"testing"

	"templatedep/internal/reduction"
	"templatedep/internal/words"
)

func TestNilpotentQuotientWitnessPower(t *testing.T) {
	// At class 2 every product in B collapses to zero, so A0·A0 = B forces
	// B onto the zero — and the quotient is exactly the minimal null
	// witness the table search also finds.
	p := words.PowerPresentation()
	in, ok, err := NilpotentQuotientWitness(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("no witness at class 2")
	}
	if err := in.IsModelOfMainLemmaFailure(p); err != nil {
		t.Error(err)
	}
	if in.Table.Size() != 2 {
		t.Errorf("witness order %d, want 2", in.Table.Size())
	}
}

func TestNilpotentQuotientWitnessNilpotentSafe(t *testing.T) {
	p := words.NilpotentSafePresentation(2)
	in, ok, err := BestNilpotentQuotientWitness(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("no witness up to class 4")
	}
	if err := in.IsModelOfMainLemmaFailure(p); err != nil {
		t.Error(err)
	}
	t.Logf("witness order %d", in.Table.Size())
}

func TestNilpotentQuotientRejectsDerivable(t *testing.T) {
	// Derivable presentations force A0 into the zero class at every class.
	for _, p := range []*words.Presentation{words.TwoStepPresentation(), words.ChainPresentation(2)} {
		_, ok, err := BestNilpotentQuotientWitness(p, 4)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatal("witness found for a derivable presentation")
		}
	}
}

func TestNilpotentQuotientRejectsGap(t *testing.T) {
	// The idempotent equation A0·A0 = A0 collapses A0 into the zero class
	// in every nilpotent quotient (a^2 ~ a forces a ~ a^k ~ 0), so no
	// witness can emerge — consistent with the instance having NO finite
	// cancellation witness at all.
	_, ok, err := BestNilpotentQuotientWitness(words.IdempotentGapPresentation(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("impossible witness for the gap instance")
	}
}

func TestNilpotentQuotientFeedsDirectionB(t *testing.T) {
	// End to end: quotient witness -> part (B) counter-model, verified.
	p := words.PowerPresentation()
	in, ok, err := BestNilpotentQuotientWitness(p, 3)
	if err != nil || !ok {
		t.Fatalf("witness: %v %v", ok, err)
	}
	red, err := reduction.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := red.BuildCounterModel(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := red.Verify(cm); err != nil {
		t.Fatal(err)
	}
	if cm.Instance.Len() == 0 {
		t.Error("empty counter-model")
	}
}
