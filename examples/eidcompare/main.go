// EID comparison: the paper situates template dependencies inside the
// larger class of embedded implicational dependencies (Chandra, Lewis,
// Makowsky 1981), whose conclusions may be conjunctions. This example runs
// the paper's own EID on the garment schema and demonstrates, with the EID
// chase, that the conjunctive conclusion with a SHARED existential supplier
// is strictly stronger than its two TD projections — which is why the
// paper's TD result strengthens the earlier EID result.
package main

import (
	"fmt"
	"log"
	"templatedep/internal/budget"

	"templatedep/internal/eid"
	"templatedep/internal/relation"
	"templatedep/internal/td"
)

func main() {
	s, paperEID := eid.PaperExample()
	fmt.Println("the paper's EID:", paperEID.Format())
	fmt.Println("  (one supplier covering garment b in BOTH sizes c and c')")
	fmt.Println()

	// Its two TD projections: each conclusion atom with its own supplier.
	projA := eid.FromTD(td.MustParse(s, "R(a, b, c) & R(a, b', c') -> R(x, b, c)", "projA"))
	projB := eid.FromTD(td.MustParse(s, "R(a, b, c) & R(a, b', c') -> R(y, b, c')", "projB"))
	fmt.Println("TD projection A:", projA.Format())
	fmt.Println("TD projection B:", projB.Format())
	fmt.Println()

	// The EID implies both projections...
	for _, goal := range []*eid.EID{projA, projB} {
		res, err := eid.Implies([]*eid.EID{paperEID}, goal, eid.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("EID implies %s: %s\n", goal.Name(), res.Verdict)
	}
	// ...but not conversely.
	res, err := eid.Implies([]*eid.EID{projA, projB}, paperEID, eid.Options{Governor: budget.New(nil, budget.Limits{Rounds: 8, Tuples: 5000})})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("projections imply the EID: %s\n", res.Verdict)
	fmt.Println()

	// A concrete separating database: all projections satisfied, EID not.
	db := relation.NewInstance(s)
	db.MustAdd(relation.Tuple{0, 0, 0}) // supplier0: style0 size0
	db.MustAdd(relation.Tuple{0, 1, 1}) // supplier0: style1 size1
	db.MustAdd(relation.Tuple{1, 0, 1}) // supplier1 covers (style0, size1)
	db.MustAdd(relation.Tuple{2, 1, 0}) // supplier2 covers (style1, size0)
	okA, _ := projA.Satisfies(db)
	okB, _ := projB.Satisfies(db)
	okE, _ := paperEID.Satisfies(db)
	fmt.Printf("separating database (4 tuples): projA=%v projB=%v EID=%v\n", okA, okB, okE)
	fmt.Println("no single supplier covers style0 in both sizes — the shared")
	fmt.Println("existential cannot be split into independent TDs.")
}
