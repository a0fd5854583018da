package finitemodel

import (
	"fmt"
	"math/rand"
	"templatedep/internal/budget"
	"testing/quick"

	"templatedep/internal/chase"
	"testing"

	"templatedep/internal/relation"
	"templatedep/internal/td"
)

func TestFindCounterexampleBasic(t *testing.T) {
	// D empty, D0 = fig1: any instance violating fig1 works; the smallest
	// has 2 tuples (a shared supplier, two styles/sizes, nobody covering
	// the cross).
	_, fig1 := td.GarmentExample()
	res, err := FindCounterexample(nil, fig1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instance == nil {
		t.Fatalf("outcome %v after %d nodes", res.Status(), res.NodesVisited)
	}
	if res.Instance.Len() != 2 {
		t.Errorf("counterexample size %d, want 2", res.Instance.Len())
	}
	if ok, _ := fig1.Satisfies(res.Instance); ok {
		t.Error("returned instance satisfies D0")
	}
}

func TestFindCounterexampleRespectsD(t *testing.T) {
	s := relation.MustSchema("A", "B", "C")
	join := td.MustParse(s, "R(a, b, c) & R(a, b', c') -> R(a, b, c')", "join")
	goal := td.MustParse(s, "R(a, b, c) & R(a', b', c') -> R(a, b, c')", "goal")
	res, err := FindCounterexample([]*td.TD{join}, goal, Options{Sizes: budget.Range{Lo: 1, Hi: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instance == nil {
		t.Fatalf("outcome %v", res.Status())
	}
	if ok, _ := join.Satisfies(res.Instance); !ok {
		t.Error("counterexample violates a member of D")
	}
	if ok, _ := goal.Satisfies(res.Instance); ok {
		t.Error("counterexample satisfies D0")
	}
}

func TestNoCounterexampleForImpliedGoal(t *testing.T) {
	s := relation.MustSchema("A", "B", "C")
	join := td.MustParse(s, "R(a, b, c) & R(a, b', c') -> R(a, b, c')", "join")
	goal := td.MustParse(s, "R(a, b, c) & R(a, b', c') & R(a, b'', c'') -> R(a, b, c'')", "goal")
	res, err := FindCounterexample([]*td.TD{join}, goal, Options{Sizes: budget.Range{Lo: 1, Hi: 3}, Governor: budget.New(nil, budget.Limits{Nodes: 5_000_000})})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instance != nil {
		t.Fatalf("found impossible counterexample:\n%s", res.Instance.String())
	}
}

func TestNoCounterexampleForTrivialGoal(t *testing.T) {
	s := relation.MustSchema("A", "B")
	triv := td.MustParse(s, "R(a, b) -> R(a, b)", "")
	res, err := FindCounterexample(nil, triv, Options{Sizes: budget.Range{Lo: 1, Hi: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Status(); got != "exhausted-within-bounds" {
		t.Errorf("outcome %v", got)
	}
}

func TestBudget(t *testing.T) {
	_, fig1 := td.GarmentExample()
	res, err := FindCounterexample(nil, fig1, Options{Sizes: budget.Range{Lo: 1, Hi: 4}, Governor: budget.New(nil, budget.Limits{Nodes: 3})})
	if err != nil {
		t.Fatal(err)
	}
	if res.Budget != budget.Exhausted(budget.Nodes) {
		t.Errorf("outcome %v", res.Status())
	}
}

func TestSchemaMismatch(t *testing.T) {
	s := relation.MustSchema("A", "B")
	other := relation.MustSchema("X", "Y", "Z")
	d := td.MustParse(s, "R(a, b) -> R(a, b')", "")
	g := td.MustParse(other, "R(x, y, z) -> R(x, y, z')", "")
	if _, err := FindCounterexample([]*td.TD{d}, g, Options{}); err == nil {
		t.Error("schema mismatch accepted")
	}
}

// Property: on random full-TD instances over a 2-column schema, the
// enumerator agrees with the chase decision procedure — whenever Decide
// says "not implied" AND the chase's own counterexample is small, the
// enumerator finds a counterexample too; whenever Decide says "implied",
// the enumerator must find nothing at any size.
func TestAgreesWithDecideProperty(t *testing.T) {
	s := relation.MustSchema("A", "B")
	mk := func(rng *rand.Rand) *td.TD {
		// Random full TD with 2 antecedents over small variable pools; the
		// conclusion reuses antecedent variables only.
		av := []int{rng.Intn(2), rng.Intn(2)}
		bv := []int{rng.Intn(2), rng.Intn(2)}
		text := fmt.Sprintf("R(a%d, b%d) & R(a%d, b%d) -> R(a%d, b%d)",
			av[0], bv[0], av[1], bv[1], av[rng.Intn(2)], bv[rng.Intn(2)])
		return td.MustParse(s, text, "rand")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dep := mk(rng)
		goal := mk(rng)
		decided, err := chase.Decide([]*td.TD{dep}, goal, 0)
		if err != nil {
			return true // bound refusal etc.; vacuous
		}
		// Chase counterexample size bounds the enumeration needed.
		cres, err := chase.Implies([]*td.TD{dep}, goal, chase.Options{})
		if err != nil {
			t.Log(err)
			return false
		}
		res, err := FindCounterexample([]*td.TD{dep}, goal, Options{Sizes: budget.Range{Lo: 1, Hi: 4}, Governor: budget.New(nil, budget.Limits{Nodes: 3_000_000})})
		if err != nil {
			t.Log(err)
			return false
		}
		if decided && res.Instance != nil {
			t.Logf("seed %d: implied but counterexample found:\n%s", seed, res.Instance.String())
			return false
		}
		if !decided && cres.Instance.Len() <= 4 && res.Instance == nil {
			t.Logf("seed %d: not implied with %d-tuple chase witness, enumerator found nothing",
				seed, cres.Instance.Len())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(41))}); err != nil {
		t.Error(err)
	}
}

func TestAgreesWithChaseOnSmallCases(t *testing.T) {
	// For the full-TD case the chase decides; the enumerator must agree on
	// existence of counterexamples within its bounds.
	s := relation.MustSchema("A", "B")
	full := td.MustParse(s, "R(a, b) & R(a', b) -> R(a, b)", "") // trivial
	goal := td.MustParse(s, "R(a, b) & R(a', b') -> R(a, b')", "cross")
	res, err := FindCounterexample([]*td.TD{full}, goal, Options{Sizes: budget.Range{Lo: 1, Hi: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instance == nil {
		t.Fatalf("outcome %v; {(0,0),(1,1)} should be a counterexample", res.Status())
	}
}
