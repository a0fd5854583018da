package chase

import (
	"testing"

	"templatedep/internal/relation"
	"templatedep/internal/td"
)

func TestCoreOfRemovesSubsumedNulls(t *testing.T) {
	s := relation.MustSchema("A", "B")
	inst := relation.NewInstance(s)
	inst.MustAdd(relation.Tuple{0, 0}) // constants
	inst.MustAdd(relation.Tuple{5, 0}) // null 5 in A folds onto 0
	core, err := CoreOf(inst, []relation.Value{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if core.Len() != 1 || !core.Contains(relation.Tuple{0, 0}) {
		t.Errorf("core:\n%s", core.String())
	}
}

func TestCoreOfKeepsConstants(t *testing.T) {
	s := relation.MustSchema("A", "B")
	inst := relation.NewInstance(s)
	inst.MustAdd(relation.Tuple{0, 0})
	inst.MustAdd(relation.Tuple{1, 0}) // A=1 is a CONSTANT here: not removable
	core, err := CoreOf(inst, []relation.Value{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if core.Len() != 2 {
		t.Errorf("constant tuple removed:\n%s", core.String())
	}
}

func TestCoreOfChainFolds(t *testing.T) {
	// Nulls folding transitively: (7,0) -> (6,0) -> (0,0) all collapse.
	s := relation.MustSchema("A", "B")
	inst := relation.NewInstance(s)
	inst.MustAdd(relation.Tuple{0, 0})
	inst.MustAdd(relation.Tuple{6, 0})
	inst.MustAdd(relation.Tuple{7, 0})
	core, err := CoreOf(inst, []relation.Value{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if core.Len() != 1 {
		t.Errorf("core size %d:\n%s", core.Len(), core.String())
	}
}

func TestCoreOfIrreducible(t *testing.T) {
	// Distinct constant patterns: nothing folds.
	s := relation.MustSchema("A", "B")
	inst := relation.NewInstance(s)
	inst.MustAdd(relation.Tuple{0, 0})
	inst.MustAdd(relation.Tuple{0, 1})
	inst.MustAdd(relation.Tuple{1, 0})
	core, err := CoreOf(inst, []relation.Value{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if core.Len() != 3 {
		t.Errorf("core size %d, want 3", core.Len())
	}
}

func TestCoreOfResultGarment(t *testing.T) {
	// The fig1 self-implication chase produces a fixpoint whose invented
	// suppliers are NOT redundant (each covers a unique style/size cross),
	// so the core equals the fixpoint. The implied-goal chase stops as soon
	// as the conclusion appears, so its result is already tight too — the
	// interesting check is that CoreOfResult is sound: the core still
	// satisfies the dependency set and still witnesses the goal's
	// conclusion pattern.
	_, fig1 := td.GarmentExample()
	res, err := Implies([]*td.TD{fig1}, fig1, Options{})
	if err != nil || res.Verdict != Implied {
		t.Fatal("setup")
	}
	frozen, _ := fig1.FrozenAntecedents()
	core, err := CoreOfResult(res, frozen)
	if err != nil {
		t.Fatal(err)
	}
	if core.Len() > res.Instance.Len() {
		t.Error("core grew")
	}
	// All frozen tuples survive (their values are constants).
	for _, tup := range frozen.Tuples() {
		if !core.Contains(tup) {
			t.Errorf("core lost frozen tuple %v", tup)
		}
	}
}

func TestCoreOfChaseFixpointStaysModel(t *testing.T) {
	// Folding nulls never breaks satisfaction: the core of a fixpoint still
	// satisfies the dependencies (retracts preserve TDs' antecedent
	// matches' conclusions... verified concretely).
	s := relation.MustSchema("A", "B", "C")
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
		t.Fatal("no fixpoint")
	}
	bound := []relation.Value{1, 2, 2} // everything in start is constant
	core, err := CoreOf(res.Instance, bound)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := join.Satisfies(core); !ok {
		t.Error("core violates the dependency")
	}
}

func TestCoreOfValidation(t *testing.T) {
	s := relation.MustSchema("A", "B")
	inst := relation.NewInstance(s)
	inst.MustAdd(relation.Tuple{0, 0})
	if _, err := CoreOf(inst, []relation.Value{1}); err == nil {
		t.Error("wrong-width constBound accepted")
	}
}
