package eid

import (
	"templatedep/internal/budget"
	"testing"

	"templatedep/internal/relation"
	"templatedep/internal/td"
)

func TestEIDImpliesSelf(t *testing.T) {
	_, e := PaperExample()
	res, err := Implies([]*EID{e}, e, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Implied {
		t.Fatalf("verdict %v", res.Verdict)
	}
}

func TestEIDImpliesItsTDProjections(t *testing.T) {
	// The EID with shared a* implies each single-conclusion projection.
	s, e := PaperExample()
	projA := FromTD(td.MustParse(s, "R(a, b, c) & R(a, b', c') -> R(x, b, c)", "projA"))
	projB := FromTD(td.MustParse(s, "R(a, b, c) & R(a, b', c') -> R(y, b, c')", "projB"))
	for _, goal := range []*EID{projA, projB} {
		res, err := Implies([]*EID{e}, goal, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != Implied {
			t.Errorf("%s: verdict %v", goal.Name(), res.Verdict)
		}
	}
}

func TestTDProjectionsDoNotImplyEID(t *testing.T) {
	// Conversely the projections do NOT imply the conjunctive EID.
	s, e := PaperExample()
	projA := FromTD(td.MustParse(s, "R(a, b, c) & R(a, b', c') -> R(x, b, c)", "projA"))
	projB := FromTD(td.MustParse(s, "R(a, b, c) & R(a, b', c') -> R(y, b, c')", "projB"))
	res, err := Implies([]*EID{projA, projB}, e, Options{Governor: budget.New(nil, budget.Limits{Rounds: 8, Tuples: 5000})})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict == Implied {
		t.Fatal("projections must not imply the shared-existential EID")
	}
}

func TestEIDChaseFixpointCounterexample(t *testing.T) {
	_, e := PaperExample()
	res, err := Implies(nil, e, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != NotImplied || !res.FixpointReached {
		t.Fatalf("verdict %v fixpoint %v", res.Verdict, res.FixpointReached)
	}
	if ok, _ := e.Satisfies(res.Instance); ok {
		t.Error("counterexample satisfies the goal")
	}
}

func TestEIDChaseClosureSatisfies(t *testing.T) {
	s, e := PaperExample()
	start := relation.NewInstance(s)
	start.MustAdd(relation.Tuple{0, 0, 0})
	start.MustAdd(relation.Tuple{0, 1, 1})
	res, err := Chase([]*EID{e}, start, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FixpointReached {
		t.Fatalf("no fixpoint (tuples %d)", res.Instance.Len())
	}
	if ok, _ := e.Satisfies(res.Instance); !ok {
		t.Error("fixpoint violates the EID")
	}
	if !res.Instance.Contains(relation.Tuple{0, 0, 0}) {
		t.Error("input tuple lost")
	}
}

func TestEIDChaseBudgets(t *testing.T) {
	_, e := PaperExample()
	res, err := Implies([]*EID{e}, e, Options{Governor: budget.New(nil, budget.Limits{Rounds: 64, Tuples: 2})})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Unknown {
		t.Errorf("verdict %v under tuple cap", res.Verdict)
	}
}

func TestEIDChaseSchemaMismatch(t *testing.T) {
	_, e := PaperExample()
	other := relation.MustSchema("X", "Y")
	start := relation.NewInstance(other)
	if _, err := Chase([]*EID{e}, start, nil, Options{}); err == nil {
		t.Error("schema mismatch accepted")
	}
}

func TestEIDTrivialGoal(t *testing.T) {
	s := relation.MustSchema("A", "B")
	goal := MustParse(s, "R(a, b) -> R(a, b)", "trivial")
	res, err := Implies(nil, goal, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Implied {
		t.Errorf("verdict %v", res.Verdict)
	}
	if res.Rounds != 0 {
		t.Errorf("rounds %d, want 0", res.Rounds)
	}
}
