package cert_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"templatedep/internal/budget"
	"templatedep/internal/cert"
	"templatedep/internal/core"
	"templatedep/internal/portfolio"
	"templatedep/internal/relation"
	"templatedep/internal/td"
	"templatedep/internal/words"
)

// FuzzCheck feeds arbitrary bytes to Decode and Check: neither may panic.
// A certificate the checker accepts must not contradict the engines — a
// tightly bounded portfolio run on its problem may come back unknown, but
// never with the opposite definitive verdict. The seeds in
// testdata/fuzz/FuzzCheck are one genuine certificate of each kind and
// problem form: a kb derivation (chain:2), chase proofs over a TD problem
// (the garment example) and a presentation (twostep), and finite models
// (power, and the garment goal over no dependencies).
func FuzzCheck(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := cert.Decode(data)
		if err != nil {
			return
		}
		if cert.Check(c) != nil {
			return
		}
		res, err := boundedRun(c.Problem)
		if err != nil {
			t.Fatalf("accepted certificate's problem does not run: %v", err)
		}
		if res.Verdict != core.Unknown && res.Verdict.String() != c.Verdict {
			t.Fatalf("checker accepted a %q certificate; the portfolio says %v (won by %s)", c.Verdict, res.Verdict, res.Winner)
		}
	})
}

// boundedRun runs the portfolio on a certificate's problem under ceilings
// small enough for any input the checker accepts, and a deadline.
func boundedRun(p cert.Problem) (*portfolio.Result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	b := core.Budget{Governor: budget.New(ctx, budget.Limits{})}
	b.Chase.Governor = budget.New(nil, budget.Limits{Rounds: 4, Tuples: 64})
	b.ModelSearch.Governor = budget.New(nil, budget.Limits{Nodes: 5000})
	b.FiniteDB.Governor = budget.New(nil, budget.Limits{Nodes: 5000})
	b.FiniteDB.Sizes = budget.Range{Lo: 1, Hi: 2}
	b.Completion.Governor = budget.New(nil, budget.Limits{Rules: 64, Rounds: 8})
	if p.IsPresentation() {
		a, err := words.NewAlphabet(p.Alphabet, p.A0, p.Zero)
		if err != nil {
			return nil, err
		}
		var eqs []words.Equation
		for _, line := range p.Equations {
			e, err := words.ParseEquation(a, line)
			if err != nil {
				return nil, err
			}
			eqs = append(eqs, e)
		}
		pres, err := words.NewPresentation(a, eqs)
		if err != nil {
			return nil, err
		}
		return portfolio.AnalyzePresentation(pres, b)
	}
	schema, err := relation.NewSchema(p.Schema)
	if err != nil {
		return nil, err
	}
	deps, err := td.ParseSet(schema, strings.Join(p.Deps, "\n"))
	if err != nil {
		return nil, err
	}
	goal, err := td.Parse(schema, p.Goal, "D0")
	if err != nil {
		return nil, err
	}
	return portfolio.Infer(deps, goal, b)
}
