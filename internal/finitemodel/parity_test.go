package finitemodel

import (
	"context"
	"strings"
	"testing"

	"templatedep/internal/budget"
	"templatedep/internal/relation"
	"templatedep/internal/td"
)

// schemaOf returns R(A, B, ...) of width w.
func schemaOf(w int) *relation.Schema {
	names := make([]string, w)
	for a := range names {
		names[a] = string(rune('A' + a))
	}
	return relation.MustSchema(names...)
}

// P_S holds every 0/1 tuple with an even sum on S: 2^(w−1) distinct
// tuples, whatever the nonempty S.
func TestParityShape(t *testing.T) {
	for w := 1; w <= ParityMaxWidth; w++ {
		s := schemaOf(w)
		for cols := uint(1); cols < 1<<w; cols++ {
			p := parity(s, cols)
			if p.Len() != 1<<(w-1) {
				t.Errorf("w=%d S=%b: %d tuples, want %d", w, cols, p.Len(), 1<<(w-1))
			}
			for _, tup := range p.Tuples() {
				sum := 0
				for a, v := range tup {
					if v != 0 && v != 1 {
						t.Fatalf("w=%d S=%b: value %d in %v", w, cols, v, tup)
					}
					if cols&(1<<a) != 0 {
						sum += int(v)
					}
				}
				if sum%2 != 0 {
					t.Errorf("w=%d S=%b: tuple %v has an odd sum on S", w, cols, tup)
				}
			}
		}
	}
}

// X ⊥ Y over R(A, B, C) with no dependencies: P_S fails the atom when
// S ⊆ X ∪ Y meets both sides, and the first such S in ascending bit order
// is {A, B}.
func TestFindParityWins(t *testing.T) {
	s := schemaOf(3)
	goal := td.MustParse(s, "R(a, b, c) & R(a', b', c') -> R(a, b', c'')", "A⊥B")
	g := budget.New(nil, budget.Limits{})
	res, err := FindParity(nil, goal, g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instance == nil {
		t.Fatalf("no countermodel after %d nodes (%s)", res.NodesVisited, res.Status())
	}
	if res.NodesVisited != 3 || g.Used(budget.Nodes) != 3 {
		t.Errorf("won after %d nodes, governor charged %d; want 3 (S = {A, B})", res.NodesVisited, g.Used(budget.Nodes))
	}
	if ok, _ := goal.Satisfies(res.Instance); ok {
		t.Error("the countermodel satisfies the goal")
	}
	if res.Status() != "found" {
		t.Errorf("status %q", res.Status())
	}
}

// A miss tries every nonempty S, charging exactly 2^w − 1 nodes, and
// reports a covered construction rather than a budget stop.
func TestFindParityMissChargesEveryCandidate(t *testing.T) {
	for w := 2; w <= ParityMaxWidth; w++ {
		s := schemaOf(w)
		// The goal implies itself, so no countermodel exists.
		goal := tdAtom(t, s, 1, 2)
		g := budget.New(nil, budget.Limits{Nodes: 1000})
		res, err := FindParity([]*td.TD{goal}, goal, g)
		if err != nil {
			t.Fatal(err)
		}
		want := 1<<w - 1
		if res.Instance != nil || res.Budget.Stopped() {
			t.Fatalf("w=%d: %s", w, res.Status())
		}
		if res.NodesVisited != want || g.Used(budget.Nodes) != want {
			t.Errorf("w=%d: %d nodes visited, %d charged; want %d", w, res.NodesVisited, g.Used(budget.Nodes), want)
		}
		if res.Status() != "exhausted-within-bounds" {
			t.Errorf("w=%d: status %q", w, res.Status())
		}
	}
}

// The governor stops the construction: a cancelled one before the first
// candidate, even when that candidate is a countermodel, and a nodes cap
// after exactly that many candidates.
func TestFindParityStopsWithGovernor(t *testing.T) {
	s := schemaOf(3)
	goal := td.MustParse(s, "R(a, b, c) & R(a', b', c') -> R(a, b', c'')", "A⊥B")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := FindParity(nil, goal, budget.New(ctx, budget.Limits{}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Instance != nil || res.NodesVisited != 0 || res.Budget.Code != budget.CodeCancelled {
		t.Errorf("cancelled governor: %s after %d nodes", res.Status(), res.NodesVisited)
	}

	res, err = FindParity(nil, goal, budget.New(nil, budget.Limits{Nodes: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Instance != nil || res.NodesVisited != 2 || res.Budget != budget.Exhausted(budget.Nodes) {
		t.Errorf("2-node cap: %s after %d nodes", res.Status(), res.NodesVisited)
	}
}

func TestFindParityRefusesWideSchemas(t *testing.T) {
	s := schemaOf(ParityMaxWidth + 1)
	goal := tdAtom(t, s, 1, 2)
	if _, err := FindParity(nil, goal, nil); err == nil {
		t.Error("a schema wider than ParityMaxWidth was accepted")
	}
}

// tdAtom renders the independence atom X ⊥ Y (column bit sets) over s.
func tdAtom(t *testing.T, s *relation.Schema, x, y uint) *td.TD {
	t.Helper()
	var t1, t2, concl []string
	for a := 0; a < s.Width(); a++ {
		v := string(rune('a' + a))
		t1 = append(t1, v)
		t2 = append(t2, v+"'")
		switch {
		case x&(1<<a) != 0:
			concl = append(concl, v)
		case y&(1<<a) != 0:
			concl = append(concl, v+"'")
		default:
			concl = append(concl, v+"''")
		}
	}
	row := func(vs []string) string { return "R(" + strings.Join(vs, ", ") + ")" }
	d, err := td.Parse(s, row(t1)+" & "+row(t2)+" -> "+row(concl), "atom")
	if err != nil {
		t.Fatal(err)
	}
	return d
}
