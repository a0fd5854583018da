package rewrite

import (
	"math/rand"
	"strings"
	"templatedep/internal/budget"
	"testing"
	"testing/quick"

	"templatedep/internal/words"
)

func TestOrient(t *testing.T) {
	if _, ok := Orient(words.Eq(words.W(1), words.W(1))); ok {
		t.Error("trivial equation oriented")
	}
	r, ok := Orient(words.Eq(words.W(1), words.W(1, 2)))
	if !ok || !r.LHS.Equal(words.W(1, 2)) {
		t.Errorf("orientation wrong: %v %v", r, ok)
	}
	r2, ok := Orient(words.Eq(words.W(2), words.W(1)))
	if !ok || !r2.LHS.Equal(words.W(2)) {
		t.Errorf("lex orientation wrong: %v", r2)
	}
}

func TestNormalFormZeroAbsorption(t *testing.T) {
	p := words.PowerPresentation()
	s := FromPresentation(p)
	a := p.Alphabet
	// A0 B 0 A0 reduces: anything touching 0 collapses to 0... rules:
	// A0·A0 -> B (shortlex: len2 > len1), X·0 -> 0, 0·X -> 0.
	w := words.MustParseWord(a, "A0 B 0 A0")
	nf, err := s.NormalForm(w)
	if err != nil {
		t.Fatal(err)
	}
	if !nf.Equal(words.W(a.Zero())) {
		t.Errorf("NF = %s", nf.Format(a))
	}
	// A0 A0 -> B.
	nf2, err := s.NormalForm(words.MustParseWord(a, "A0 A0"))
	if err != nil {
		t.Fatal(err)
	}
	if !nf2.Equal(words.W(a.MustSymbol("B"))) {
		t.Errorf("NF(A0 A0) = %s", nf2.Format(a))
	}
}

func TestRewriteOnceLeftmost(t *testing.T) {
	p := words.PowerPresentation()
	s := FromPresentation(p)
	a := p.Alphabet
	w := words.MustParseWord(a, "A0 A0 A0 A0")
	one, changed := s.RewriteOnce(w)
	if !changed {
		t.Fatal("no rewrite")
	}
	// Leftmost: B A0 A0.
	if one.Format(a) != "B A0 A0" {
		t.Errorf("one step = %q", one.Format(a))
	}
}

func TestCompleteChainDecides(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		p := words.ChainPresentation(n)
		s := FromPresentation(p)
		res, err := s.Complete(CompletionOptions{})
		if err != nil {
			t.Fatalf("Chain(%d): %v", n, err)
		}
		if !res.Confluent {
			t.Fatalf("Chain(%d): completion not confluent after %d iterations", n, res.Iterations)
		}
		ok, _, err := s.DecideGoal()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("Chain(%d): goal should be decided true", n)
		}
	}
}

func TestCompletePowerDecidesNegative(t *testing.T) {
	p := words.PowerPresentation()
	s := FromPresentation(p)
	res, err := s.Complete(CompletionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Confluent {
		t.Fatal("power presentation should complete")
	}
	ok, _, err := s.DecideGoal()
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("goal should be decided false")
	}
}

func TestCompleteTwoStep(t *testing.T) {
	p := words.TwoStepPresentation()
	s := FromPresentation(p)
	res, err := s.Complete(CompletionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Confluent {
		t.Fatal("two-step should complete")
	}
	ok, _, err := s.DecideGoal()
	if err != nil || !ok {
		t.Errorf("goal decision = %v, %v", ok, err)
	}
}

// Cross-validation: on random presentations where both the closure search
// and completion give definite answers, they agree.
func TestRewriteAgreesWithClosure(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := words.RandomPresentation(rng, 2, 3)
		s := FromPresentation(p)
		res, err := s.Complete(CompletionOptions{Governor: budget.New(nil, budget.Limits{Rules: 200, Rounds: 30})})
		if err != nil || !res.Confluent {
			return true // completion inconclusive; nothing to compare
		}
		decided, _, err := s.DecideGoal()
		if err != nil {
			return true
		}
		cl := words.DeriveGoal(p, words.ClosureOptions{Governor: budget.New(nil, budget.Limits{Words: 3000}), LengthCap: 10})
		switch cl.Verdict {
		case words.Derivable:
			if !decided {
				t.Logf("seed %d: closure derivable, rewriting says no", seed)
				return false
			}
		case words.NotDerivable:
			if decided {
				t.Logf("seed %d: closure not-derivable, rewriting says yes", seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Error(err)
	}
}

func TestCriticalPairsDetectNonConfluence(t *testing.T) {
	// Two rules with the same LHS: k0k0 -> A0 and k0k0 -> s1 in Chain(2).
	p := words.ChainPresentation(2)
	s := FromPresentation(p)
	pairs, err := s.CriticalPairs()
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) == 0 {
		t.Error("expected unresolved critical pairs before completion")
	}
}

func TestFormat(t *testing.T) {
	p := words.PowerPresentation()
	s := FromPresentation(p)
	if !strings.Contains(s.Format(), "->") {
		t.Errorf("Format = %q", s.Format())
	}
}

func TestSimplifyShrinks(t *testing.T) {
	p := words.ChainPresentation(2)
	s := FromPresentation(p)
	if _, err := s.Complete(CompletionOptions{}); err != nil {
		t.Fatal(err)
	}
	before := len(s.Rules)
	// Add a redundant rule and re-simplify via Complete (already confluent).
	s.Rules = append(s.Rules, s.Rules[0])
	res, err := s.Complete(CompletionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Confluent {
		t.Fatal("should remain confluent")
	}
	if len(s.Rules) > before+1 {
		t.Errorf("rules grew from %d to %d", before, len(s.Rules))
	}
	// Decision still works.
	ok, _, err := s.DecideGoal()
	if err != nil || !ok {
		t.Errorf("goal decision = %v, %v", ok, err)
	}
}

// Every rule of a completed (or budget-stopped) system carries a derivation
// of LHS = RHS over the source presentation, and a decided goal comes with
// a derivation of A0 = 0.
func TestRulesCarryDerivations(t *testing.T) {
	for _, name := range []string{"twostep", "chain:1", "chain:2", "chain:3", "chain:4", "chain:5", "chain:6",
		"collapse:2", "collapse:3", "collapse:4", "tower:4", "nilpotent:5"} {
		p, err := words.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		s := FromPresentation(p)
		res, err := s.Complete(CompletionOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, r := range s.Rules {
			if r.Proof == nil {
				t.Fatalf("%s: rule %d (%s) has no proof", name, i, r.Format(p.Alphabet))
			}
			if !r.Proof.From.Equal(r.LHS) || !r.Proof.To.Equal(r.RHS) {
				t.Fatalf("%s: rule %d proof derives %v = %v", name, i, r.Proof.From, r.Proof.To)
			}
			if err := r.Proof.Validate(p); err != nil {
				t.Fatalf("%s: rule %d (%s): %v", name, i, r.Format(p.Alphabet), err)
			}
		}
		if !res.Confluent {
			if name != "nilpotent:5" {
				t.Errorf("%s: completion did not converge", name)
			}
			continue
		}
		decided, d, err := s.DecideGoal()
		if err != nil {
			t.Fatal(err)
		}
		if decided != (d != nil) {
			t.Fatalf("%s: decided %v but goal proof %v", name, decided, d)
		}
		if d != nil {
			if err := d.Validate(p); err != nil {
				t.Errorf("%s: goal proof: %v", name, err)
			}
			if goal := p.Goal(); !d.From.Equal(goal.LHS) || !d.To.Equal(goal.RHS) {
				t.Errorf("%s: goal proof derives %v = %v", name, d.From, d.To)
			}
		}
	}
}
