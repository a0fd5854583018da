package chase

import (
	"testing"

	"templatedep/internal/budget"
	"templatedep/internal/eid"
	"templatedep/internal/relation"
	"templatedep/internal/td"
)

func threeCol() *relation.Schema { return relation.MustSchema("A", "B", "C") }

func TestImpliesTrivialGoal(t *testing.T) {
	s := threeCol()
	d0 := td.MustParse(s, "R(a, b, c) -> R(a, b, c*)", "trivial")
	res, err := Implies(nil, d0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Implied {
		t.Fatalf("verdict %v", res.Verdict)
	}
	if res.Stats.Rounds != 0 {
		t.Errorf("trivial goal should need 0 rounds, got %d", res.Stats.Rounds)
	}
}

func TestImpliesSelf(t *testing.T) {
	_, fig1 := td.GarmentExample()
	res, err := Implies([]*td.TD{fig1}, fig1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Implied {
		t.Fatalf("verdict %v", res.Verdict)
	}
	if res.Stats.Rounds != 1 {
		t.Errorf("self-implication should need 1 round, got %d", res.Stats.Rounds)
	}
}

func TestNotImpliedByEmptySet(t *testing.T) {
	_, fig1 := td.GarmentExample()
	res, err := Implies(nil, fig1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != NotImplied {
		t.Fatalf("verdict %v", res.Verdict)
	}
	if !res.FixpointReached {
		t.Error("empty dependency set should reach fixpoint immediately")
	}
	// The fixpoint is a counterexample: it must violate fig1.
	if ok, _ := fig1.Satisfies(res.Instance); ok {
		t.Error("counterexample instance satisfies the goal")
	}
}

func TestFullTDDecision(t *testing.T) {
	s := threeCol()
	// join: if two tuples share A, the cross tuple (a, b, c') exists.
	join := td.MustParse(s, "R(a, b, c) & R(a, b', c') -> R(a, b, c')", "join")
	if !join.IsFull() {
		t.Fatal("join should be full")
	}
	// Implied: the double-cross follows from join.
	goal := td.MustParse(s, "R(a, b, c) & R(a, b', c') & R(a, b'', c'') -> R(a, b, c'')", "goal")
	res, err := Implies([]*td.TD{join}, goal, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Implied {
		t.Errorf("verdict %v, want Implied", res.Verdict)
	}
	// Not implied: crossing tuples with different A values.
	goal2 := td.MustParse(s, "R(a, b, c) & R(a', b', c') -> R(a, b, c')", "goal2")
	res2, err := Implies([]*td.TD{join}, goal2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Verdict != NotImplied {
		t.Errorf("verdict %v, want NotImplied", res2.Verdict)
	}
	if !res2.FixpointReached {
		t.Error("full-TD chase must terminate")
	}
	// The terminated chase instance satisfies every dependency and violates
	// the goal: a certified finite counterexample.
	if ok, _ := join.Satisfies(res2.Instance); !ok {
		t.Error("fixpoint violates join")
	}
	if ok, _ := goal2.Satisfies(res2.Instance); ok {
		t.Error("fixpoint satisfies goal2; not a counterexample")
	}
}

func TestEmbeddedFires(t *testing.T) {
	s, fig1 := td.GarmentExample()
	_ = s
	// fig1 with swapped roles is NOT implied by fig1... use a goal with
	// fresh antecedents: two tuples sharing nothing.
	goal := td.MustParse(fig1.Schema(), "R(a, b, c) & R(a', b', c') -> R(a*, b, c')", "cross")
	res, err := Implies([]*td.TD{fig1}, goal, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// fig1 requires a shared supplier; the goal's antecedents do not share
	// one, so fig1 never helps: expect NotImplied at fixpoint.
	if res.Verdict != NotImplied {
		t.Errorf("verdict %v, want NotImplied", res.Verdict)
	}
}

func TestBudgetUnknown(t *testing.T) {
	_, fig1 := td.GarmentExample()
	opt := Options{}
	// frozen antecedents already have 2 tuples
	opt.Governor = budget.New(nil, budget.Limits{Rounds: DefaultLimits.Rounds, Tuples: 2})
	res, err := Implies([]*td.TD{fig1}, fig1, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Unknown {
		t.Errorf("verdict %v, want Unknown", res.Verdict)
	}
}

func TestMaxRoundsUnknown(t *testing.T) {
	s := threeCol()
	join := td.MustParse(s, "R(a, b, c) & R(a, b', c') -> R(a, b, c')", "join")
	goal := td.MustParse(s, "R(a, b, c) & R(a, b', c') & R(a, b'', c'') -> R(a, b, c'')", "goal")
	e, err := NewEngine(s, []*td.TD{join}, Options{Governor: budget.New(nil, budget.Limits{Rounds: 1, Tuples: 3})})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Implies(goal)
	if err != nil {
		t.Fatal(err)
	}
	// One round with tuple cap 3 cannot finish (several crosses needed).
	if res.Verdict == NotImplied {
		t.Errorf("verdict %v; a budget cut must not claim NotImplied", res.Verdict)
	}
}

// The semi-naive engine's fixpoint equals the one eid.Chase, the
// independent reference, reaches by re-joining the whole instance every
// round: equal up to null renaming.
func TestSemiNaiveMatchesNaive(t *testing.T) {
	s := threeCol()
	join := td.MustParse(s, "R(a, b, c) & R(a, b', c') -> R(a, b, c')", "join")
	start := relation.NewInstance(s)
	start.MustAdd(relation.Tuple{0, 0, 0})
	start.MustAdd(relation.Tuple{0, 1, 1})
	start.MustAdd(relation.Tuple{0, 2, 2})
	start.MustAdd(relation.Tuple{7, 1, 2})

	limits := budget.Limits{Rounds: 50, Tuples: 1000}
	e, err := NewEngine(s, []*td.TD{join}, Options{Governor: budget.New(nil, limits)})
	if err != nil {
		t.Fatal(err)
	}
	res := e.Chase(start, nil)
	ref, err := eid.Chase([]*eid.EID{eid.FromTD(join)}, start, nil, eid.Options{Governor: budget.New(nil, limits)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FixpointReached || !ref.FixpointReached {
		t.Fatalf("fixpoints: engine %v, reference %v", res.FixpointReached, ref.FixpointReached)
	}
	if res.Instance.Len() != ref.Instance.Len() {
		t.Fatalf("engine %d tuples, reference %d", res.Instance.Len(), ref.Instance.Len())
	}
	if !relation.Isomorphic(res.Instance, ref.Instance) {
		t.Error("fixpoints not isomorphic")
	}
}

func TestChaseClosureSatisfiesDeps(t *testing.T) {
	s := threeCol()
	join := td.MustParse(s, "R(a, b, c) & R(a, b', c') -> R(a, b, c')", "join")
	start := relation.NewInstance(s)
	start.MustAdd(relation.Tuple{0, 0, 0})
	start.MustAdd(relation.Tuple{0, 1, 1})
	e, err := NewEngine(s, []*td.TD{join}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := e.Chase(start, nil)
	if !res.FixpointReached {
		t.Fatal("expected fixpoint")
	}
	if ok, _ := join.Satisfies(res.Instance); !ok {
		t.Error("fixpoint violates the dependency")
	}
	// The original tuples survive (chase only adds).
	if !res.Instance.Contains(relation.Tuple{0, 0, 0}) {
		t.Error("chase lost an input tuple")
	}
	// Closure of the 2x2 grid on supplier 0: 4 tuples.
	if res.Instance.Len() != 4 {
		t.Errorf("closure size %d, want 4", res.Instance.Len())
	}
}

func TestTraceRecordsSteps(t *testing.T) {
	_, fig1 := td.GarmentExample()
	res, err := Implies([]*td.TD{fig1}, fig1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Implied {
		t.Fatal("setup")
	}
	proof := res.Proof()
	if len(proof) == 0 {
		t.Fatal("no proof recorded")
	}
	f := proof[0]
	if f.Dep != 0 || f.Round != 1 {
		t.Errorf("proof step %+v", f)
	}
	// The traced tuple must be in the final instance.
	if !res.Instance.Contains(f.Tuple) {
		t.Error("traced tuple missing from instance")
	}
}

func TestRoundBoundaries(t *testing.T) {
	s := threeCol()
	join := td.MustParse(s, "R(a, b, c) & R(a, b', c') -> R(a, b, c')", "join")
	start := relation.NewInstance(s)
	start.MustAdd(relation.Tuple{0, 0, 0})
	start.MustAdd(relation.Tuple{0, 1, 1})
	start.MustAdd(relation.Tuple{0, 2, 2})
	e, err := NewEngine(s, []*td.TD{join}, Options{Governor: budget.New(nil, budget.Limits{Rounds: 20, Tuples: 1000})})
	if err != nil {
		t.Fatal(err)
	}
	res := e.Chase(start, nil)
	if !res.FixpointReached {
		t.Fatal("no fixpoint")
	}
	bounds := res.Bounds()
	if len(bounds) < 2 || bounds[0] != start.Len() {
		t.Fatalf("round boundaries %v", bounds)
	}
	// Tuple counts are non-decreasing and end at the final size.
	prev := start.Len()
	for round, n := range bounds[1:] {
		if n < prev {
			t.Errorf("round %d: tuples decreased %d -> %d", round+1, prev, n)
		}
		prev = n
	}
	if prev != res.Instance.Len() {
		t.Errorf("boundaries end at %d, instance has %d", prev, res.Instance.Len())
	}
}

func TestNewEngineSchemaMismatch(t *testing.T) {
	s := threeCol()
	other := relation.MustSchema("X", "Y")
	dep := td.MustParse(other, "R(x, y) -> R(x, y*)", "")
	if _, err := NewEngine(s, []*td.TD{dep}, Options{}); err == nil {
		t.Error("schema mismatch accepted")
	}
	e, err := NewEngine(s, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Implies(dep); err == nil {
		t.Error("goal schema mismatch accepted")
	}
}

func TestAllFull(t *testing.T) {
	s := threeCol()
	full := td.MustParse(s, "R(a, b, c) & R(a, b', c') -> R(a, b, c')", "")
	emb := td.MustParse(s, "R(a, b, c) -> R(a*, b, c)", "")
	if !AllFull([]*td.TD{full}) {
		t.Error("full set reported not full")
	}
	if AllFull([]*td.TD{full, emb}) {
		t.Error("embedded member not detected")
	}
	if !AllFull(nil) {
		t.Error("empty set is vacuously full")
	}
}

// With an embedded dependency the restricted chase can terminate: every
// conclusion becomes witnessed, so no trigger stays active.
func TestRestrictedChaseTerminatesOnFig1(t *testing.T) {
	s := threeCol()
	dep := td.MustParse(s, "R(a, b, c) & R(a, b', c') -> R(a*, b, c')", "fig1")
	start := relation.NewInstance(s)
	start.MustAdd(relation.Tuple{0, 0, 0})
	start.MustAdd(relation.Tuple{0, 1, 1})

	e, err := NewEngine(s, []*td.TD{dep}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := e.Chase(start, nil)
	if !res.FixpointReached {
		t.Fatalf("chase did not reach fixpoint (tuples %d)", res.Instance.Len())
	}
	if res.Instance.Len() != 4 {
		t.Errorf("fixpoint has %d tuples, want 4", res.Instance.Len())
	}
	if ok, _ := dep.Satisfies(res.Instance); !ok {
		t.Error("fixpoint violates the dependency")
	}
}
