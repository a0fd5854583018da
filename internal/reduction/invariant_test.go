package reduction

import (
	"templatedep/internal/budget"
	"testing"

	"templatedep/internal/chase"
	"templatedep/internal/relation"
	"templatedep/internal/tableau"
	"templatedep/internal/words"
)

// TestDirectionAInductionInvariant makes the paper's proof of part (A)
// executable: after the chase has run, the instance contains — for EVERY
// word u_j of the derivation chain u_0 = A0, ..., u_m = 0 — a bridge for
// u_j anchored at the frozen a and b of D0's antecedents, with its apex row
// in d0's E'-class. This is precisely the induction statement on p. 77.
func TestDirectionAInductionInvariant(t *testing.T) {
	p := words.TwoStepPresentation()
	in := MustBuild(p)

	dres := words.DeriveGoal(in.Pres, words.ClosureOptions{})
	if dres.Verdict != words.Derivable {
		t.Fatal("setup: goal not derivable")
	}

	cres, err := chase.Implies(in.D, in.D0, chase.Options{Governor: budget.New(nil, budget.Limits{Rounds: 12, Tuples: 60000})})
	if err != nil {
		t.Fatal(err)
	}
	if cres.Verdict != chase.Implied {
		t.Fatalf("chase verdict %v", cres.Verdict)
	}
	chased := cres.Instance

	// The frozen antecedents of D0: row 0 = a, row 1 = b, row 2 = d0
	// (construction order in buildD0). Their tuples in the chased instance
	// are the first three (the chase seeds with the frozen antecedents).
	frozen, _ := in.D0.FrozenAntecedents()
	if frozen.Len() != 3 {
		t.Fatalf("frozen size %d", frozen.Len())
	}
	aTup := frozen.Tuple(0)
	bTup := frozen.Tuple(1)
	d0Tup := frozen.Tuple(2)
	for _, tup := range []relation.Tuple{aTup, bTup, d0Tup} {
		if !chased.Contains(tup) {
			t.Fatal("chase lost a frozen antecedent")
		}
	}

	for _, u := range dres.Derivation.Words() {
		br, err := in.BuildBridge(u)
		if err != nil {
			t.Fatal(err)
		}
		// Anchor the bridge: first base row = a, last base row = b, and the
		// apex row's E'-variable = d0's E'-value.
		anchors := map[int]relation.Tuple{
			br.BaseNodes[0]:                   aTup,
			br.BaseNodes[len(br.BaseNodes)-1]: bTup,
		}
		seed, err := br.SeedEndpoints(anchors)
		if err != nil {
			t.Fatal(err)
		}
		ep := int(in.EPrime())
		apexVar := br.Tableau.Row(br.ApexNodes[0])[ep]
		if seed[ep][apexVar] == tableau.Unbound {
			seed[ep][apexVar] = d0Tup[ep]
		} else if seed[ep][apexVar] != d0Tup[ep] {
			t.Fatalf("apex E' already anchored inconsistently for %s", u.Format(in.Pres.Alphabet))
		}
		if !br.Tableau.HasHomomorphism(chased, seed) {
			t.Errorf("no anchored bridge for derivation word %s in the chased instance",
				u.Format(in.Pres.Alphabet))
		}
	}
}

// TestNonDerivableWordHasNoBridge is the negative control: the chased
// instance contains anchored bridges only for words in A0's equational
// class; a word outside it (here "c b", the reversal) must not appear
// anchored after the SAME bounded chase that proved the goal.
func TestNonDerivableWordHasNoBridge(t *testing.T) {
	p := words.TwoStepPresentation()
	in := MustBuild(p)
	cres, err := chase.Implies(in.D, in.D0, chase.Options{Governor: budget.New(nil, budget.Limits{Rounds: 4, Tuples: 60000})})
	if err != nil {
		t.Fatal(err)
	}
	// (4 rounds suffice for the two-step goal; see TestDirectionATwoStep.)
	if cres.Verdict != chase.Implied {
		t.Fatalf("chase verdict %v", cres.Verdict)
	}
	frozen, _ := in.D0.FrozenAntecedents()
	aTup, bTup := frozen.Tuple(0), frozen.Tuple(1)

	cb := words.MustParseWord(p.Alphabet, "c b") // reversal: NOT ~ A0
	br, err := in.BuildBridge(cb)
	if err != nil {
		t.Fatal(err)
	}
	seed, err := br.SeedEndpoints(map[int]relation.Tuple{
		br.BaseNodes[0]: aTup,
		br.BaseNodes[2]: bTup,
	})
	if err != nil {
		t.Fatal(err)
	}
	if br.Tableau.HasHomomorphism(cres.Instance, seed) {
		t.Error("anchored bridge found for a word outside A0's class")
	}
}
