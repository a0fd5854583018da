// Package reduction implements the paper's Reduction Theorem construction:
// from a semigroup presentation in (2,1) normal form (every equation
// AB = C) it builds a template-dependency inference instance (D, D0) such
// that
//
//	(A) if the presentation equationally forces A0 = 0, then D logically
//	    implies D0 (the chase finds a proof), and
//	(B) if a finite cancellation semigroup without identity satisfies the
//	    presentation with A0 ≠ 0, then a finite database satisfies D and
//	    violates D0 (built by BuildCounterModel).
//
// The schema has 2n+2 attributes for an n-symbol alphabet: A' and A” for
// every symbol A, plus E and E'. A word A1...Ak is represented by a bridge
// (Fig. 2): E-equivalent base nodes c0..ck, E'-equivalent apex nodes
// d1..dk, and for each i a triangle c(i-1) —Ai'— di —Ai”— ci. For each
// equation r: AB = C the four dependencies D1(r)–D4(r) (Fig. 3) let the
// chase rewrite AB-bridges into C-bridges and back:
//
//	D1(r): a bridge for AB over (t1, t3) forces the C-apex over (t1, t3);
//	D2(r): a C-triangle over (t1, t2) forces an A-apex hanging from t1;
//	D3(r): symmetric, a B-apex reaching t2;
//	D4(r): a C-triangle plus both dangling apexes force the shared middle
//	       base point.
//
// D0 states: a one-symbol bridge for A0 forces a one-symbol bridge for the
// zero symbol over the same base, with an E'-linked apex.
//
// Build writes each of these dependencies straight into tableau rows, one
// fixed shape per Fig. 3 diagram (package diagram draws them, and is the
// reference the rows are tested against). The package runs no engine: its
// tests drive both directions of the theorem end to end.
package reduction

import (
	"fmt"

	"templatedep/internal/relation"
	"templatedep/internal/tableau"
	"templatedep/internal/td"
	"templatedep/internal/words"
)

// Instance is a built TD-inference instance (D, D0) for a presentation.
type Instance struct {
	// Original is the presentation Build was called with.
	Original *words.Presentation
	// Pres is the (2,1) presentation the dependencies encode (equal to
	// Original when it was already in normal form with zero equations).
	Pres *words.Presentation
	// Norm records the normalization applied, or nil.
	Norm *words.Normalization
	// Schema has 2n+2 attributes: A', A'' per symbol, then E, E'.
	Schema *relation.Schema
	// D contains D1(r)..D4(r) for each equation r, in equation order.
	D []*td.TD
	// D0 is the goal dependency.
	D0 *td.TD

	prime  []relation.Attr // indexed by symbol
	dprime []relation.Attr
	e      relation.Attr
	ePrime relation.Attr
}

// Build constructs the reduction instance. Presentations not in (2,1) form
// (or missing zero equations) are normalized first (Normalize); the
// construction then works over the normalized presentation.
func Build(p *words.Presentation) (*Instance, error) {
	in, err := prepare(p)
	if err != nil {
		return nil, err
	}
	for i, eq := range in.Pres.Equations {
		ds, err := in.buildEquationDeps(i, eq)
		if err != nil {
			return nil, err
		}
		in.D = append(in.D, ds...)
	}
	d0, err := in.buildD0()
	if err != nil {
		return nil, err
	}
	in.D0 = d0
	return in, nil
}

// Normalize returns the presentation Build encodes for p: p with its zero
// equations added, brought into (2,1) normal form when it is not already,
// and checked to have its zero equations. It makes every check Build makes
// before it draws a dependency, so it fails exactly when Build would, but
// it builds no (D, D0): a derivation certificate is about this
// presentation alone.
func Normalize(p *words.Presentation) (*words.Presentation, error) {
	in, err := prepare(p)
	if err != nil {
		return nil, err
	}
	return in.Pres, nil
}

// prepare is the part of Build that Normalize shares: it normalizes p and
// names the schema's attributes, leaving D and D0 unbuilt.
func prepare(p *words.Presentation) (*Instance, error) {
	in := &Instance{Original: p}
	work := p.WithZeroEquations()
	if !work.IsTwoOne() {
		n, err := words.Normalize(work)
		if err != nil {
			return nil, err
		}
		in.Norm = n
		work = n.Presentation
	}
	for i, eq := range work.Equations {
		if !eq.IsTwoOne() {
			return nil, fmt.Errorf("reduction: equation %d not in (2,1) form", i)
		}
	}
	if err := work.CheckZeroEquations(); err != nil {
		return nil, err
	}
	in.Pres = work

	a := work.Alphabet
	names := make([]string, 0, 2*a.Size()+2)
	in.prime = make([]relation.Attr, a.Size())
	in.dprime = make([]relation.Attr, a.Size())
	for _, s := range a.Symbols() {
		base := a.Name(s)
		if base == "E" || base == "E'" {
			return nil, fmt.Errorf("reduction: symbol name %q collides with the E/E' attributes; rename it", base)
		}
		in.prime[s] = relation.Attr(len(names))
		names = append(names, base+"'")
		in.dprime[s] = relation.Attr(len(names))
		names = append(names, base+"''")
	}
	in.e = relation.Attr(len(names))
	names = append(names, "E")
	in.ePrime = relation.Attr(len(names))
	names = append(names, "E'")
	schema, err := relation.NewSchema(names)
	if err != nil {
		return nil, err
	}
	in.Schema = schema
	return in, nil
}

// MustBuild is Build that panics on error.
func MustBuild(p *words.Presentation) *Instance {
	in, err := Build(p)
	if err != nil {
		panic(err)
	}
	return in
}

// Prime returns the A' attribute of symbol s.
func (in *Instance) Prime(s words.Symbol) relation.Attr { return in.prime[s] }

// DPrime returns the A” attribute of symbol s.
func (in *Instance) DPrime(s words.Symbol) relation.Attr { return in.dprime[s] }

// E returns the E attribute (base-row equivalence).
func (in *Instance) E() relation.Attr { return in.e }

// EPrime returns the E' attribute (apex-row equivalence).
func (in *Instance) EPrime() relation.Attr { return in.ePrime }

// DsForEquation returns the four dependencies D1(r)..D4(r) of equation i.
func (in *Instance) DsForEquation(i int) []*td.TD {
	return in.D[4*i : 4*i+4]
}

// MaxAntecedents returns the largest antecedent count among D and D0 — the
// paper's "five at most".
func (in *Instance) MaxAntecedents() int {
	m := in.D0.NumAntecedents()
	for _, d := range in.D {
		if k := d.NumAntecedents(); k > m {
			m = k
		}
	}
	return m
}

// edge is a Fig. 3 edge: nodes u and v agree on attr.
type edge struct {
	attr relation.Attr
	u, v int
}

// dependency writes a Fig. 3 diagram straight into tableau rows: node i is
// row i, and the last node is the conclusion (*). In every column each
// node has its own variable unless edges of that column join it to other
// nodes; joined nodes share one variable. Variables are numbered per
// column in order of first occurrence, the numbering tableau.New keeps as
// it is, so the result is the TD the diagram of these edges converts to.
func (in *Instance) dependency(name string, nodes int, edges ...edge) (*td.TD, error) {
	w := in.Schema.Width()
	buf := make([]tableau.Var, nodes*w)
	rows := make([]tableau.VarTuple, nodes)
	for i := range rows {
		rows[i] = buf[i*w : (i+1)*w]
		for a := range rows[i] {
			rows[i][a] = tableau.Var(i)
		}
	}
	var parent [maxNodes]int
	find := func(x int) int {
		for parent[x] != x {
			x = parent[x]
		}
		return x
	}
next:
	for k, e := range edges {
		for _, f := range edges[:k] {
			if f.attr == e.attr {
				continue next // column already numbered
			}
		}
		for i := range parent {
			parent[i] = i
		}
		for _, f := range edges[k:] {
			if f.attr == e.attr {
				parent[find(f.u)] = find(f.v)
			}
		}
		var id [maxNodes]tableau.Var
		for i := range id {
			id[i] = -1
		}
		n := tableau.Var(0)
		for i := 0; i < nodes; i++ {
			r := find(i)
			if id[r] < 0 {
				id[r] = n
				n++
			}
			rows[i][e.attr] = id[r]
		}
	}
	return td.New(in.Schema, rows[:nodes-1], rows[nodes-1], name)
}

// maxNodes is the most nodes a Fig. 3 diagram has (D1 and D4).
const maxNodes = 6

// buildEquationDeps constructs D1(r)..D4(r) for equation r: AB = C.
func (in *Instance) buildEquationDeps(i int, eq words.Equation) ([]*td.TD, error) {
	A, B := eq.LHS[0], eq.LHS[1]
	C := eq.RHS[0]
	label := eq.Format(in.Pres.Alphabet)
	e, e1 := in.e, in.ePrime
	p, pp := in.prime, in.dprime

	// D1: nodes t1..t5 = 0..4, * = 5. A bridge for AB forces the C-apex.
	d1, err := in.dependency(fmt.Sprintf("D1[%d: %s]", i, label), 6,
		edge{e, 0, 1}, edge{e, 1, 2},
		edge{p[A], 0, 3}, edge{pp[A], 3, 1},
		edge{p[B], 1, 4}, edge{pp[B], 4, 2},
		edge{e1, 3, 4},
		edge{p[C], 0, 5}, edge{pp[C], 5, 2},
		edge{e1, 3, 5})
	if err != nil {
		return nil, err
	}

	// D2: nodes t1..t3 = 0..2, * = 3. A C-triangle forces an A-apex from t1.
	d2, err := in.dependency(fmt.Sprintf("D2[%d: %s]", i, label), 4,
		edge{e, 0, 1},
		edge{p[C], 0, 2}, edge{pp[C], 2, 1},
		edge{p[A], 0, 3},
		edge{e1, 2, 3})
	if err != nil {
		return nil, err
	}

	// D3: symmetric to D2, a B-apex reaching t2.
	d3, err := in.dependency(fmt.Sprintf("D3[%d: %s]", i, label), 4,
		edge{e, 0, 1},
		edge{p[C], 0, 2}, edge{pp[C], 2, 1},
		edge{pp[B], 3, 1},
		edge{e1, 2, 3})
	if err != nil {
		return nil, err
	}

	// D4: nodes t1..t5 = 0..4, * = 5. A C-triangle plus dangling A- and
	// B-apexes force the shared middle base point.
	d4, err := in.dependency(fmt.Sprintf("D4[%d: %s]", i, label), 6,
		edge{e, 0, 1},
		edge{p[C], 0, 2}, edge{pp[C], 2, 1},
		edge{p[A], 0, 3}, edge{pp[B], 4, 1},
		edge{e1, 2, 3}, edge{e1, 3, 4},
		edge{pp[A], 3, 5}, edge{p[B], 5, 4},
		edge{e, 0, 5})
	if err != nil {
		return nil, err
	}

	return []*td.TD{d1, d2, d3, d4}, nil
}

// buildD0 constructs the goal: an A0-triangle over (t1, t2) with apex t3
// forces a 0-triangle over the same base with an E'-linked apex.
func (in *Instance) buildD0() (*td.TD, error) {
	a := in.Pres.Alphabet
	a0, z := a.A0(), a.Zero()
	return in.dependency("D0", 4,
		edge{in.e, 0, 1},
		edge{in.prime[a0], 0, 2}, edge{in.dprime[a0], 2, 1},
		edge{in.prime[z], 0, 3}, edge{in.dprime[z], 3, 1},
		edge{in.ePrime, 2, 3})
}
