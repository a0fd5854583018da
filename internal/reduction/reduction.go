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
package reduction

import (
	"fmt"

	"templatedep/internal/diagram"
	"templatedep/internal/relation"
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

// buildEquationDeps constructs D1(r)..D4(r) for equation r: AB = C.
func (in *Instance) buildEquationDeps(i int, eq words.Equation) ([]*td.TD, error) {
	A, B := eq.LHS[0], eq.LHS[1]
	C := eq.RHS[0]
	label := eq.Format(in.Pres.Alphabet)

	// D1: nodes t1..t5 = 0..4, * = 5. A bridge for AB forces the C-apex.
	g1 := diagram.MustNew(in.Schema, 6, 5)
	g1.MustAddEdge(in.e, 0, 1)
	g1.MustAddEdge(in.e, 1, 2)
	g1.MustAddEdge(in.prime[A], 0, 3)
	g1.MustAddEdge(in.dprime[A], 3, 1)
	g1.MustAddEdge(in.prime[B], 1, 4)
	g1.MustAddEdge(in.dprime[B], 4, 2)
	g1.MustAddEdge(in.ePrime, 3, 4)
	g1.MustAddEdge(in.prime[C], 0, 5)
	g1.MustAddEdge(in.dprime[C], 5, 2)
	g1.MustAddEdge(in.ePrime, 3, 5)
	d1, err := g1.TD(fmt.Sprintf("D1[%d: %s]", i, label))
	if err != nil {
		return nil, err
	}

	// D2: nodes t1..t3 = 0..2, * = 3. A C-triangle forces an A-apex from t1.
	g2 := diagram.MustNew(in.Schema, 4, 3)
	g2.MustAddEdge(in.e, 0, 1)
	g2.MustAddEdge(in.prime[C], 0, 2)
	g2.MustAddEdge(in.dprime[C], 2, 1)
	g2.MustAddEdge(in.prime[A], 0, 3)
	g2.MustAddEdge(in.ePrime, 2, 3)
	d2, err := g2.TD(fmt.Sprintf("D2[%d: %s]", i, label))
	if err != nil {
		return nil, err
	}

	// D3: symmetric to D2, a B-apex reaching t2.
	g3 := diagram.MustNew(in.Schema, 4, 3)
	g3.MustAddEdge(in.e, 0, 1)
	g3.MustAddEdge(in.prime[C], 0, 2)
	g3.MustAddEdge(in.dprime[C], 2, 1)
	g3.MustAddEdge(in.dprime[B], 3, 1)
	g3.MustAddEdge(in.ePrime, 2, 3)
	d3, err := g3.TD(fmt.Sprintf("D3[%d: %s]", i, label))
	if err != nil {
		return nil, err
	}

	// D4: nodes t1..t5 = 0..4, * = 5. A C-triangle plus dangling A- and
	// B-apexes force the shared middle base point.
	g4 := diagram.MustNew(in.Schema, 6, 5)
	g4.MustAddEdge(in.e, 0, 1)
	g4.MustAddEdge(in.prime[C], 0, 2)
	g4.MustAddEdge(in.dprime[C], 2, 1)
	g4.MustAddEdge(in.prime[A], 0, 3)
	g4.MustAddEdge(in.dprime[B], 4, 1)
	g4.MustAddEdge(in.ePrime, 2, 3)
	g4.MustAddEdge(in.ePrime, 3, 4)
	g4.MustAddEdge(in.dprime[A], 3, 5)
	g4.MustAddEdge(in.prime[B], 5, 4)
	g4.MustAddEdge(in.e, 0, 5)
	d4, err := g4.TD(fmt.Sprintf("D4[%d: %s]", i, label))
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
	g := diagram.MustNew(in.Schema, 4, 3)
	g.MustAddEdge(in.e, 0, 1)
	g.MustAddEdge(in.prime[a0], 0, 2)
	g.MustAddEdge(in.dprime[a0], 2, 1)
	g.MustAddEdge(in.prime[z], 0, 3)
	g.MustAddEdge(in.dprime[z], 3, 1)
	g.MustAddEdge(in.ePrime, 2, 3)
	return g.TD("D0")
}
