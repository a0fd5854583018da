package chase

import (
	"strings"
	"testing"

	"templatedep/internal/relation"
	"templatedep/internal/td"
)

func TestDecidePositive(t *testing.T) {
	s := threeCol()
	join := td.MustParse(s, "R(a, b, c) & R(a, b', c') -> R(a, b, c')", "join")
	goal := td.MustParse(s, "R(a, b, c) & R(a, b', c') & R(a, b'', c'') -> R(a, b, c'')", "goal")
	ok, err := Decide([]*td.TD{join}, goal, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("should be implied")
	}
}

func TestDecideNegative(t *testing.T) {
	s := threeCol()
	join := td.MustParse(s, "R(a, b, c) & R(a, b', c') -> R(a, b, c')", "join")
	goal := td.MustParse(s, "R(a, b, c) & R(a', b', c') -> R(a, b, c')", "goal")
	ok, err := Decide([]*td.TD{join}, goal, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("should not be implied")
	}
}

func TestDecideEmbeddedGoalOverFullDeps(t *testing.T) {
	// The goal may be embedded: the chase still terminates because only
	// deps fire.
	s := threeCol()
	join := td.MustParse(s, "R(a, b, c) & R(a, b', c') -> R(a, b, c')", "join")
	goal := td.MustParse(s, "R(a, b, c) & R(a, b', c') -> R(a*, b, c')", "embedded-goal")
	ok, err := Decide([]*td.TD{join}, goal, 0)
	if err != nil {
		t.Fatal(err)
	}
	// join gives (a, b, c'), which witnesses the existential a*.
	if !ok {
		t.Error("embedded goal should be implied (the join tuple witnesses it)")
	}
}

func TestDecideRejectsEmbeddedDeps(t *testing.T) {
	s := threeCol()
	emb := td.MustParse(s, "R(a, b, c) -> R(a*, b, c)", "emb")
	goal := td.MustParse(s, "R(a, b, c) -> R(a, b, c)", "goal")
	if _, err := Decide([]*td.TD{emb}, goal, 0); err == nil {
		t.Error("embedded dependency accepted")
	}
}

func TestDecideBoundRefusal(t *testing.T) {
	// A goal with a large frozen active domain exceeds a tiny tuple cap.
	s := relation.MustSchema("A", "B")
	full := td.MustParse(s, "R(a, b) & R(a', b) -> R(a, b)", "full")
	goal := td.MustParse(s, "R(a1, b1) & R(a2, b2) & R(a3, b3) & R(a4, b4) -> R(a1, b2)", "wide")
	if _, err := Decide([]*td.TD{full}, goal, 10); err == nil || !strings.Contains(err.Error(), "bound") {
		t.Errorf("err = %v, want bound refusal", err)
	}
	// With the default cap it decides fine.
	if _, err := Decide([]*td.TD{full}, goal, 0); err != nil {
		t.Errorf("default cap failed: %v", err)
	}
}

func TestDecideAgreesWithImplies(t *testing.T) {
	s := threeCol()
	deps, err := td.ParseSet(s, `
join:   R(a, b, c) & R(a, b', c') -> R(a, b, c')
mirror: R(a, b, c) & R(a', b, c') -> R(a, b, c')
`)
	if err != nil {
		t.Fatal(err)
	}
	goals, err := td.ParseSet(s, `
g1: R(a, b, c) & R(a, b', c') -> R(a, b', c)
g2: R(a, b, c) & R(a', b', c') -> R(a, b', c)
g3: R(a, b, c) & R(a', b, c') -> R(a', b, c)
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range goals {
		decided, err := Decide(deps, g, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Implies(deps, g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := res.Verdict == Implied
		if res.Verdict == Unknown {
			t.Fatalf("%s: Implies returned Unknown on a full set", g.Name())
		}
		if decided != want {
			t.Errorf("%s: Decide=%v Implies=%v", g.Name(), decided, res.Verdict)
		}
	}
}
