// Quickstart: define template dependencies over a typed schema, check
// satisfaction on a concrete database, and run the chase-based inference
// engine — all on the paper's running example, the garment database
// R(SUPPLIER, STYLE, SIZE).
package main

import (
	"fmt"
	"log"

	"templatedep/internal/chase"
	"templatedep/internal/diagram"
	"templatedep/internal/relation"
	"templatedep/internal/td"
)

func main() {
	// The schema. The typing restriction is built in: SUPPLIER values and
	// STYLE values live in disjoint domains.
	schema := relation.MustSchema("SUPPLIER", "STYLE", "SIZE")

	// The paper's Figure 1 dependency: if a supplier supplies both
	// garments of style b and garments of size c', then SOME supplier
	// supplies style b in size c'.
	fig1, err := td.Parse(schema, "R(a, b, c) & R(a, b', c') -> R(a*, b, c')", "fig1")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("dependency:", fig1)
	fmt.Println("embedded:", !fig1.IsFull(), " trivial:", fig1.IsTrivial())
	fmt.Println()
	fmt.Println(diagram.FromTD(fig1).ASCII())

	// A concrete database: St. Laurent (0) supplies evening dresses (0)
	// in size 10 (0) and briefs (1) in size 36 (1).
	db := relation.NewInstance(schema)
	db.MustAdd(relation.Tuple{0, 0, 0})
	db.MustAdd(relation.Tuple{0, 1, 1})
	ok, _ := fig1.Satisfies(db)
	fmt.Println("database satisfies fig1:", ok) // false: nobody supplies style 0 in size 1

	// Repair by chasing: close the database under the dependency.
	engine, err := chase.NewEngine(schema, []*td.TD{fig1}, chase.Options{})
	if err != nil {
		log.Fatal(err)
	}
	res := engine.Chase(db, nil)
	fmt.Printf("chase: fixpoint=%v, %d tuples\n", res.FixpointReached, res.Instance.Len())
	ok, _ = fig1.Satisfies(res.Instance)
	fmt.Println("chased database satisfies fig1:", ok)
	fmt.Println()

	// Inference: does fig1 imply the symmetric variant?
	sym, err := td.Parse(schema, "R(a, b, c) & R(a, b', c') -> R(a*, b', c)", "sym")
	if err != nil {
		log.Fatal(err)
	}
	ires, err := chase.Implies([]*td.TD{fig1}, sym, chase.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fig1 implies %s?  %s\n", sym.Name(), ires.Verdict)
	if ires.Verdict == chase.NotImplied {
		fmt.Println("counterexample database (chase fixpoint):")
		fmt.Print(ires.Instance.String())
	}
}
