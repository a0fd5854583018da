package finitemodel

import (
	"fmt"
	"math/bits"

	"templatedep/internal/budget"
	"templatedep/internal/relation"
	"templatedep/internal/td"
)

// ParityMaxWidth is the widest schema FindParity accepts: at width w it
// tries 2^w − 1 candidates of 2^(w−1) tuples, so at most 31 candidates of
// at most 16 tuples.
const ParityMaxWidth = 5

// parity returns the parity relation P_S over schema: every 0/1 tuple
// whose values on the columns of the bit set cols have an even sum, in
// ascending order of the tuple read as a binary number (column 0 the low
// bit). It holds 2^(w−1) tuples when cols is nonempty.
//
// Completeness proofs for independence atoms use these relations as
// countermodels (Hannula–Kontinen, arXiv:1309.4927): a single atom
// X ⊥ Y fails in P_S exactly when S ⊆ X ∪ Y meets both X and Y.
func parity(schema *relation.Schema, cols uint) *relation.Instance {
	w := schema.Width()
	inst := relation.NewInstance(schema)
	t := make(relation.Tuple, w)
	for v := uint(0); v < 1<<w; v++ {
		if bits.OnesCount(v&cols)%2 != 0 {
			continue
		}
		for a := range t {
			t[a] = relation.Value(v >> a & 1)
		}
		inst.MustAdd(t)
	}
	return inst
}

// FindParity tries every parity relation P_S (S a nonempty column set, in
// ascending bit order) as a counterexample to deps ⊨ d0: the first P_S
// that violates d0 and satisfies every dependency is returned as the
// Result's Instance. Each candidate costs one node, charged to g before it
// is built, so a stopped governor refuses the next candidate; nil resolves
// to DefaultLimits. A miss covers the construction and reports an OK
// budget after 2^w − 1 nodes. Schemas wider than ParityMaxWidth are
// refused with an error.
func FindParity(deps []*td.TD, d0 *td.TD, g *budget.Governor) (Result, error) {
	schema := d0.Schema()
	if err := sameSchema(deps, schema); err != nil {
		return Result{}, err
	}
	w := schema.Width()
	if w > ParityMaxWidth {
		return Result{}, fmt.Errorf("finitemodel: parity relations over width %d (at most %d)", w, ParityMaxWidth)
	}
	g = budget.Resolve(g, DefaultLimits)
	var res Result
	for cols := uint(1); cols < 1<<w; cols++ {
		if o := g.Charge(budget.Nodes, 1); o.Stopped() {
			res.Budget = o
			return res, nil
		}
		res.NodesVisited++
		inst := parity(schema, cols)
		if ok, _ := d0.Satisfies(inst); ok || !satisfiesAll(deps, inst) {
			continue
		}
		res.Instance = inst
		return res, nil
	}
	return res, nil
}
