package words

import (
	"math/rand"
	"strings"
	"templatedep/internal/budget"
	"testing"
	"testing/quick"
)

func TestDeriveChain(t *testing.T) {
	for _, n := range []int{1, 2, 5} {
		p := ChainPresentation(n)
		res := DeriveGoal(p, ClosureOptions{})
		if res.Verdict != Derivable {
			t.Fatalf("Chain(%d): verdict %v", n, res.Verdict)
		}
		if err := res.Derivation.Validate(p); err != nil {
			t.Fatalf("Chain(%d): invalid derivation: %v", n, err)
		}
		if got := res.Derivation.Len(); got != 2*n {
			t.Errorf("Chain(%d): derivation length %d, want %d", n, got, 2*n)
		}
	}
}

func TestDeriveTwoStep(t *testing.T) {
	p := TwoStepPresentation()
	res := DeriveGoal(p, ClosureOptions{})
	if res.Verdict != Derivable {
		t.Fatalf("verdict %v", res.Verdict)
	}
	if res.Derivation.Len() != 2 {
		t.Errorf("derivation length %d, want 2", res.Derivation.Len())
	}
	if err := res.Derivation.Validate(p); err != nil {
		t.Error(err)
	}
	// The chain must pass through the two-symbol word b·c.
	ws := res.Derivation.Words()
	if len(ws) != 3 || ws[1].Len() != 2 {
		t.Errorf("unexpected chain %v", ws)
	}
}

func TestDeriveNotDerivable(t *testing.T) {
	// PowerPresentation: class of A0 is {A0} plus nothing reachable without
	// growing; with a length cap the search stays finite. Expansions exist
	// (B -> A0·A0 etc.), so cap lengths and expect Unknown OR run uncapped
	// with enough budget: the class of A0 is actually infinite? No: A0 can
	// be rewritten only by equations whose side matches. A0 matches no LHS
	// and no RHS except... A0·A0 = B requires two symbols. So the class of
	// the single-symbol word A0 is {A0} alone: definitively NotDerivable.
	p := PowerPresentation()
	res := DeriveGoal(p, ClosureOptions{})
	if res.Verdict != NotDerivable {
		t.Fatalf("verdict %v (explored %d)", res.Verdict, res.WordsExplored)
	}
	if res.WordsExplored != 1 {
		t.Errorf("explored %d words, want 1", res.WordsExplored)
	}
}

func TestDeriveIdempotentGapUnknown(t *testing.T) {
	// A0 = A0·A0 = A0·A0·A0 = ...: infinite class, never reaching 0. A
	// budgeted search must return Unknown.
	p := IdempotentGapPresentation()
	res := DeriveGoal(p, ClosureOptions{Governor: budget.New(nil, budget.Limits{Words: 200})})
	if res.Verdict != Unknown {
		t.Fatalf("verdict %v", res.Verdict)
	}
	if res.WordsExplored < 150 {
		t.Errorf("explored only %d words", res.WordsExplored)
	}
}

func TestDeriveLengthCapTruncates(t *testing.T) {
	p := IdempotentGapPresentation()
	res := DeriveGoal(p, ClosureOptions{Governor: budget.New(nil, budget.Limits{Words: 100000}), LengthCap: 4})
	if res.Verdict != Unknown || !res.Truncated {
		t.Fatalf("verdict %v truncated %v, want Unknown+truncated", res.Verdict, res.Truncated)
	}
}

func TestDeriveReflexive(t *testing.T) {
	p := PowerPresentation()
	w := W(p.Alphabet.A0())
	res := Derive(p, w, w, ClosureOptions{})
	if res.Verdict != Derivable || res.Derivation.Len() != 0 {
		t.Fatalf("reflexive derivation wrong: %v", res)
	}
	if err := res.Derivation.Validate(p); err != nil {
		t.Error(err)
	}
}

func TestDeriveEmptyWords(t *testing.T) {
	p := PowerPresentation()
	if res := Derive(p, Word{}, W(0), ClosureOptions{}); res.Verdict != NotDerivable {
		t.Errorf("empty source: %v", res.Verdict)
	}
}

func TestDerivationValidateRejectsCorruption(t *testing.T) {
	p := ChainPresentation(1)
	res := DeriveGoal(p, ClosureOptions{})
	if res.Verdict != Derivable {
		t.Fatal("setup failed")
	}
	d := *res.Derivation
	// Corrupt the equation index.
	bad := d
	bad.Steps = append([]Step(nil), d.Steps...)
	bad.Steps[0].Eq = 999
	if err := bad.Validate(p); err == nil {
		t.Error("corrupted eq index accepted")
	}
	// Corrupt a position.
	bad2 := d
	bad2.Steps = append([]Step(nil), d.Steps...)
	bad2.Steps[0].Pos = 7
	if err := bad2.Validate(p); err == nil {
		t.Error("corrupted position accepted")
	}
	// Corrupt the final word.
	bad3 := d
	bad3.To = W(0, 0, 0)
	if err := bad3.Validate(p); err == nil {
		t.Error("corrupted target accepted")
	}
	// Corrupt a step result.
	bad4 := d
	bad4.Steps = append([]Step(nil), d.Steps...)
	bad4.Steps[0].Result = W(0, 0, 0, 0)
	if err := bad4.Validate(p); err == nil {
		t.Error("corrupted step result accepted")
	}
}

func TestDerivationFormat(t *testing.T) {
	p := TwoStepPresentation()
	res := DeriveGoal(p, ClosureOptions{})
	s := res.Derivation.Format(p)
	if !strings.Contains(s, "A0") || !strings.Contains(s, "eq ") {
		t.Errorf("Format = %q", s)
	}
}

func TestEquivalenceClassBudget(t *testing.T) {
	// Class of A0 under {bc=A0, bc=0, zero eqs} is infinite (the zero
	// equations expand 0 -> A0·0 -> A0·A0·0 -> ...), so a budgeted
	// enumeration must report incompleteness while still containing the
	// near neighbourhood of A0.
	p := TwoStepPresentation()
	cls, complete := EquivalenceClass(p, W(p.Alphabet.A0()), ClosureOptions{Governor: budget.New(nil, budget.Limits{Words: 50})})
	if complete {
		t.Error("infinite class reported complete")
	}
	if len(cls) == 0 || len(cls) > 50 {
		t.Errorf("class size %d out of budget", len(cls))
	}
	// A0, bc, and 0 must all be present (they are within 2 BFS steps).
	keys := make(map[string]bool, len(cls))
	for _, w := range cls {
		keys[w.Key()] = true
	}
	for _, want := range []Word{W(p.Alphabet.A0()), W(p.Alphabet.Zero()), MustParseWord(p.Alphabet, "b c")} {
		if !keys[want.Key()] {
			t.Errorf("class missing %s", want.Format(p.Alphabet))
		}
	}
}

func TestEquivalenceClassFinite(t *testing.T) {
	// A presentation with only contracting equations in reach: class of A0
	// under PowerPresentation is the singleton {A0}.
	p := PowerPresentation()
	cls, complete := EquivalenceClass(p, W(p.Alphabet.A0()), ClosureOptions{Governor: budget.New(nil, budget.Limits{Words: 1000})})
	if !complete || len(cls) != 1 {
		t.Errorf("class = %v (complete=%v), want singleton", cls, complete)
	}
}

// Property: every derivation returned by Derive validates, and BFS yields a
// shortest derivation (length monotone under larger budgets).
func TestDeriveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := RandomPresentation(rng, 2+rng.Intn(2), 2+rng.Intn(3))
		res := DeriveGoal(p, ClosureOptions{Governor: budget.New(nil, budget.Limits{Words: 1500}), LengthCap: 8})
		if res.Verdict == Derivable {
			if err := res.Derivation.Validate(p); err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}

// Property: derivability is symmetric (u ~ v iff v ~ u).
func TestDeriveSymmetry(t *testing.T) {
	p := ChainPresentation(2)
	a0 := W(p.Alphabet.A0())
	z := W(p.Alphabet.Zero())
	fwd := Derive(p, a0, z, ClosureOptions{Governor: budget.New(nil, budget.Limits{Words: 20000})})
	bwd := Derive(p, z, a0, ClosureOptions{Governor: budget.New(nil, budget.Limits{Words: 20000})})
	if fwd.Verdict != Derivable || bwd.Verdict != Derivable {
		t.Fatalf("fwd %v bwd %v", fwd.Verdict, bwd.Verdict)
	}
	if err := bwd.Derivation.Validate(p); err != nil {
		t.Error(err)
	}
}
