package words

import (
	"math/rand"
	"templatedep/internal/budget"
	"testing"
	"testing/quick"
)

func TestBidirectionalChain(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8} {
		p := ChainPresentation(n)
		res := DeriveGoalBidirectional(p, ClosureOptions{})
		if res.Verdict != Derivable {
			t.Fatalf("Chain(%d): verdict %v", n, res.Verdict)
		}
		if err := res.Derivation.Validate(p); err != nil {
			t.Fatalf("Chain(%d): %v", n, err)
		}
		if res.Derivation.Len() != 2*n {
			t.Errorf("Chain(%d): length %d, want %d", n, res.Derivation.Len(), 2*n)
		}
	}
}

func TestBidirectionalTwoStep(t *testing.T) {
	p := TwoStepPresentation()
	res := DeriveGoalBidirectional(p, ClosureOptions{})
	if res.Verdict != Derivable {
		t.Fatalf("verdict %v", res.Verdict)
	}
	if err := res.Derivation.Validate(p); err != nil {
		t.Fatal(err)
	}
	if res.Derivation.Len() != 2 {
		t.Errorf("length %d", res.Derivation.Len())
	}
}

func TestBidirectionalNotDerivable(t *testing.T) {
	// Power: the class of A0 is the singleton {A0}; the forward frontier
	// exhausts and no meeting happens.
	p := PowerPresentation()
	res := DeriveGoalBidirectional(p, ClosureOptions{})
	if res.Verdict != NotDerivable {
		t.Fatalf("verdict %v", res.Verdict)
	}
}

func TestBidirectionalBudget(t *testing.T) {
	p := IdempotentGapPresentation()
	res := DeriveGoalBidirectional(p, ClosureOptions{Governor: budget.New(nil, budget.Limits{Words: 100})})
	if res.Verdict != Unknown {
		t.Fatalf("verdict %v", res.Verdict)
	}
}

func TestBidirectionalReflexiveAndEmpty(t *testing.T) {
	p := PowerPresentation()
	w := W(p.Alphabet.A0())
	res := DeriveBidirectional(p, w, w, ClosureOptions{})
	if res.Verdict != Derivable || res.Derivation.Len() != 0 {
		t.Errorf("reflexive: %v", res.Verdict)
	}
	if res := DeriveBidirectional(p, Word{}, w, ClosureOptions{}); res.Verdict != NotDerivable {
		t.Errorf("empty: %v", res.Verdict)
	}
}

// bushPresentation builds a branchy derivable instance: n chain levels,
// each reachable through w parallel squared symbols, so the BFS branching
// factor is w in both directions.
func bushPresentation(n, w int) *Presentation {
	names := []string{"A0"}
	for i := 1; i < n; i++ {
		names = append(names, "s"+itoa(i))
	}
	for i := 0; i < n; i++ {
		for j := 0; j < w; j++ {
			names = append(names, "k"+itoa(i)+"_"+itoa(j))
		}
	}
	names = append(names, "0")
	a := MustAlphabet(names, "A0", "0")
	var eqs []Equation
	prev := a.MustSymbol("A0")
	for i := 0; i < n; i++ {
		var next Symbol
		if i == n-1 {
			next = a.Zero()
		} else {
			next = a.MustSymbol("s" + itoa(i+1))
		}
		for j := 0; j < w; j++ {
			k := a.MustSymbol("k" + itoa(i) + "_" + itoa(j))
			eqs = append(eqs, Eq(W(k, k), W(prev)), Eq(W(k, k), W(next)))
		}
		prev = next
	}
	p, err := NewPresentation(a, eqs)
	if err != nil {
		panic(err)
	}
	return p.WithZeroEquations()
}

func itoa(i int) string {
	if i == 0 {
		return "0x"
	}
	s := ""
	for i > 0 {
		s = string(rune('0'+i%10)) + s
		i /= 10
	}
	return s
}

func TestBidirectionalInteriorWords(t *testing.T) {
	// Between two interior chain symbols both searches must agree and
	// produce valid shortest-or-valid derivations; relative cost depends on
	// endpoint degree and is reported, not asserted (see the strategy
	// benchmark).
	p := bushPresentation(8, 4)
	a := p.Alphabet
	from := W(a.A0())
	to := W(a.MustSymbol("s7"))
	uni := Derive(p, from, to, ClosureOptions{})
	bi := DeriveBidirectional(p, from, to, ClosureOptions{})
	if uni.Verdict != Derivable || bi.Verdict != Derivable {
		t.Fatalf("verdicts %v %v", uni.Verdict, bi.Verdict)
	}
	if err := bi.Derivation.Validate(p); err != nil {
		t.Fatal(err)
	}
	if err := uni.Derivation.Validate(p); err != nil {
		t.Fatal(err)
	}
	t.Logf("bush(8,4) interior: unidirectional %d words, bidirectional %d words",
		uni.WordsExplored, bi.WordsExplored)
}

func TestBidirectionalZeroEndpointCost(t *testing.T) {
	// The measured phenomenon the benchmarks report: searching backward
	// from the zero symbol explores the absorption neighbourhood (every
	// A·0 and 0·A), so for the A0 = 0 goal the bidirectional search can be
	// strictly WORSE than the forward-only search. Both must still agree.
	p := bushPresentation(6, 4)
	uni := DeriveGoal(p, ClosureOptions{})
	bi := DeriveGoalBidirectional(p, ClosureOptions{})
	if uni.Verdict != Derivable || bi.Verdict != Derivable {
		t.Fatalf("verdicts %v %v", uni.Verdict, bi.Verdict)
	}
	if err := bi.Derivation.Validate(p); err != nil {
		t.Fatal(err)
	}
	t.Logf("bush(6,4) goal: unidirectional %d words, bidirectional %d words",
		uni.WordsExplored, bi.WordsExplored)
}

// Property: the two searches agree on random presentations (both validated
// when derivable).
func TestBidirectionalAgreesWithUnidirectional(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := RandomPresentation(rng, 2+rng.Intn(2), 2+rng.Intn(3))
		uni := DeriveGoal(p, ClosureOptions{Governor: budget.New(nil, budget.Limits{Words: 1500}), LengthCap: 8})
		bi := DeriveGoalBidirectional(p, ClosureOptions{Governor: budget.New(nil, budget.Limits{Words: 1500}), LengthCap: 8})
		if uni.Verdict == Derivable && bi.Verdict == NotDerivable {
			t.Logf("seed %d: uni derivable, bi not", seed)
			return false
		}
		if uni.Verdict == NotDerivable && bi.Verdict == Derivable {
			t.Logf("seed %d: uni not derivable, bi derivable", seed)
			return false
		}
		if bi.Verdict == Derivable {
			if err := bi.Derivation.Validate(p); err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Error(err)
	}
}
