package serve

import (
	"context"
	"testing"
	"time"

	"templatedep/internal/core"
	"templatedep/internal/obs"
	"templatedep/internal/portfolio"
)

// tdProblem parses a TD-mode request with the shared join dependency and
// the given goal. The goals below share the dependency set and the
// antecedent tableau but keep distinct verdict keys.
func tdProblem(t *testing.T, goal string) *Problem {
	t.Helper()
	p, err := ParseRequest(Request{
		Schema: []string{"A", "B", "C"},
		Deps:   []string{"R(a,b,c) & R(a,b2,c2) -> R(a,b,c2)"},
		Goal:   goal,
	})
	if err != nil {
		t.Fatalf("ParseRequest(%s): %v", goal, err)
	}
	return p
}

const (
	goalSameConcl = "R(x,y,z) & R(x,y2,z2) -> R(x,y,z2)" // the dep itself, renamed
	goalSwapConcl = "R(x,y,z) & R(x,y2,z2) -> R(x,y2,z)" // same antecedents, swapped conclusion
)

// Two goals over one dependency set and antecedent tableau share no chase
// work: each runs its own portfolio from its frozen antecedents, answers
// source "cold", and gets the verdict and winner of a standalone
// portfolio.Infer on the same problem.
func TestGoalsSharingAntecedentsRunCold(t *testing.T) {
	counters := obs.NewCounters()
	s := New(Config{Counters: counters, RequestTimeout: 5 * time.Second})
	defer s.Shutdown(context.Background())
	for _, goal := range []string{goalSameConcl, goalSwapConcl} {
		p := tdProblem(t, goal)
		resp, err := s.Infer(p)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := portfolio.Infer(p.Deps, p.Goal, core.Budget{})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Source != "cold" {
			t.Errorf("%s: source = %s, want cold", goal, resp.Source)
		}
		if resp.Verdict != core.Implied || resp.Verdict != ref.Verdict || resp.Winner != ref.Winner {
			t.Errorf("%s: served %v by %q, standalone portfolio %v by %q",
				goal, resp.Verdict, resp.Winner, ref.Verdict, ref.Winner)
		}
	}
	if got := counters.Get("serve.cache_misses"); got != 2 {
		t.Fatalf("serve.cache_misses = %d, want 2", got)
	}
}
