// Redundancy: the practical motivation the paper's introduction cites — "a
// solution to the inference problem carries with it the ability to
// determine whether two sets of dependencies are equivalent, whether a set
// of dependencies is redundant, etc." For FULL template dependencies the
// chase terminates, so these questions are decidable; this example audits a
// constraint set for a warehouse schema, finds a redundant dependency,
// proves two formulations equivalent, and then shows why the same audit
// cannot be complete once embedded dependencies enter.
package main

import (
	"fmt"
	"log"
	"templatedep/internal/budget"

	"templatedep/internal/chase"
	"templatedep/internal/relation"
	"templatedep/internal/td"
)

func main() {
	schema := relation.MustSchema("WAREHOUSE", "PRODUCT", "CARRIER")

	constraints, err := td.ParseSet(schema, `
cross:   R(w, p, c) & R(w, p', c') -> R(w, p, c')
triple:  R(w, p, c) & R(w, p', c') & R(w, p'', c'') -> R(w, p, c'')
swap:    R(w, p, c) & R(w, p', c') -> R(w, p', c)
`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("constraint set:")
	for _, d := range constraints {
		fmt.Printf("  %-7s %s (full=%v)\n", d.Name()+":", d.Format(), d.IsFull())
	}
	fmt.Println()

	// Redundancy audit: is any constraint implied by the others? Every
	// dependency here is full, so the chase DECIDES each question.
	fmt.Println("redundancy audit (decidable: all dependencies are full):")
	for i, d := range constraints {
		rest := make([]*td.TD, 0, len(constraints)-1)
		rest = append(rest, constraints[:i]...)
		rest = append(rest, constraints[i+1:]...)
		res, err := chase.Implies(rest, d, chase.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-7s implied by the others: %s\n", d.Name(), res.Verdict)
	}
	fmt.Println()

	// Equivalence of two formulations: {cross} versus {cross, triple}.
	a := []*td.TD{constraints[0]}
	b := []*td.TD{constraints[0], constraints[1]}
	equiv := true
	for _, d := range b {
		res, err := chase.Implies(a, d, chase.Options{})
		if err != nil {
			log.Fatal(err)
		}
		if res.Verdict != chase.Implied {
			equiv = false
		}
	}
	for _, d := range a {
		res, err := chase.Implies(b, d, chase.Options{})
		if err != nil {
			log.Fatal(err)
		}
		if res.Verdict != chase.Implied {
			equiv = false
		}
	}
	fmt.Printf("{cross} equivalent to {cross, triple}: %v\n\n", equiv)

	// The boundary: add an EMBEDDED dependency and the audit loses its
	// termination guarantee — by the paper's Main Theorem, no procedure
	// both terminates always and answers correctly always.
	emb, err := td.Parse(schema, "R(w, p, c) & R(w', p, c') -> R(w'', p, c)", "mirror")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("adding embedded dependency: %s\n", emb.Format())
	opt := chase.Options{}
	opt.Governor = budget.New(nil, budget.Limits{Rounds: 8, Tuples: chase.DefaultLimits.Tuples})
	res, err := chase.Implies(append(a, emb), constraints[2], opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("does {cross, mirror} imply swap? %s", res.Verdict)
	switch res.Verdict {
	case chase.Unknown:
		fmt.Println("  (budget hit — with embedded TDs this can be unavoidable)")
	default:
		fmt.Println()
	}
}
