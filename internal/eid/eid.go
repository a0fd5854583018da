// Package eid implements (typed) embedded implicational dependencies
// without equality — the comparison class of Chandra, Lewis and Makowsky
// (1981) discussed in the paper. An EID resembles a template dependency,
// but its conclusion may be a CONJUNCTION of atoms, whose existential
// variables are shared across the conjuncts. The paper's example:
//
//	R(a, b, c) & R(a, b', c') -> R(a*, b, c) & R(a*, b, c')
//
// ("if one supplier supplies a garment b in a size c and also supplies some
// garment in size c', then there is a supplier of garment b in both sizes c
// and c'" — note the shared a*.)
//
// Every template dependency is an EID with a one-atom conclusion, so the
// paper's undecidability result for TDs strengthens the earlier one for
// EIDs. The package provides satisfaction checking and a chase-based
// implication semi-procedure mirroring package chase.
//
// On a TD (FromTD) this chase is the same restricted chase as package
// chase, with the same verdicts under the same governor, but a plain scan
// join without the semi-naive delta, warm starts or certificates. So it
// is not a serving engine: the portfolio does not run it. It is the
// independent reference the TD chase is cross-checked against
// (internal/difffuzz), and the only chase here for EIDs whose conclusion
// has more than one atom.
package eid

import (
	"fmt"
	"strings"

	"templatedep/internal/relation"
	"templatedep/internal/tableau"
	"templatedep/internal/td"
)

// EID is an embedded implicational dependency: antecedent rows plus one or
// more conclusion rows over a shared typed variable space.
type EID struct {
	name    string
	tab     *tableau.Tableau // antecedents then conclusions
	numAnte int
}

// New builds an EID. At least one antecedent and one conclusion atom are
// required.
func New(s *relation.Schema, antecedents, conclusions []tableau.VarTuple, name string) (*EID, error) {
	if len(antecedents) == 0 {
		return nil, fmt.Errorf("eid: at least one antecedent required")
	}
	if len(conclusions) == 0 {
		return nil, fmt.Errorf("eid: at least one conclusion atom required")
	}
	rows := make([]tableau.VarTuple, 0, len(antecedents)+len(conclusions))
	rows = append(rows, antecedents...)
	rows = append(rows, conclusions...)
	tab, err := tableau.New(s, rows)
	if err != nil {
		return nil, err
	}
	return &EID{name: name, tab: tab, numAnte: len(antecedents)}, nil
}

// FromTD embeds a template dependency as a one-conclusion EID.
func FromTD(d *td.TD) *EID {
	rows := make([]tableau.VarTuple, 0, d.NumAntecedents())
	for i := 0; i < d.NumAntecedents(); i++ {
		rows = append(rows, d.Antecedent(i))
	}
	e, err := New(d.Schema(), rows, []tableau.VarTuple{d.Conclusion()}, d.Name())
	if err != nil {
		panic(err) // a valid TD always converts
	}
	return e
}

// Name returns the EID's name.
func (e *EID) Name() string { return e.name }

// Schema returns the schema.
func (e *EID) Schema() *relation.Schema { return e.tab.Schema() }

// NumAntecedents returns the antecedent count.
func (e *EID) NumAntecedents() int { return e.numAnte }

// NumConclusions returns the number of conclusion atoms.
func (e *EID) NumConclusions() int { return e.tab.Len() - e.numAnte }

// Antecedent returns the i-th antecedent row.
func (e *EID) Antecedent(i int) tableau.VarTuple {
	if i < 0 || i >= e.numAnte {
		panic(fmt.Sprintf("eid: antecedent index %d out of range", i))
	}
	return e.tab.Row(i)
}

// Conclusion returns the i-th conclusion row.
func (e *EID) Conclusion(i int) tableau.VarTuple { return e.tab.Row(e.numAnte + i) }

// IsTD reports whether the EID is a template dependency (one conclusion).
func (e *EID) IsTD() bool { return e.NumConclusions() == 1 }

// Satisfies reports whether the instance satisfies the EID: every match of
// the antecedents extends to a joint match of all conclusion atoms.
func (e *EID) Satisfies(inst *relation.Instance) (bool, tableau.Assignment) {
	ok := true
	var witness tableau.Assignment
	e.tab.EachPrefixHomomorphism(inst, nil, e.numAnte, func(as tableau.Assignment) bool {
		if !e.tab.HasHomomorphism(inst, as) {
			ok = false
			witness = as.Clone()
			return false
		}
		return true
	})
	return ok, witness
}

// Parse reads an EID from the textual syntax of package td, except that the
// conclusion may be a conjunction: "R(...) & R(...) -> R(...) & R(...)".
func Parse(s *relation.Schema, input, name string) (*EID, error) {
	idx := strings.Index(input, "->")
	sepLen := 2
	if idx < 0 {
		idx = strings.Index(input, "=>")
	}
	if idx < 0 {
		return nil, fmt.Errorf("eid: missing '->' in %q", input)
	}
	left, right := input[:idx], input[idx+sepLen:]

	varOf := make([]map[string]tableau.Var, s.Width())
	for a := range varOf {
		varOf[a] = make(map[string]tableau.Var)
	}
	next := make([]tableau.Var, s.Width())
	colOf := make(map[string]int)
	parseAtom := func(atom string) (tableau.VarTuple, error) {
		atom = strings.TrimSpace(atom)
		if !strings.HasPrefix(atom, "R(") || !strings.HasSuffix(atom, ")") {
			return nil, fmt.Errorf("eid: atom %q must have the form R(...)", atom)
		}
		parts := strings.Split(atom[2:len(atom)-1], ",")
		if len(parts) != s.Width() {
			return nil, fmt.Errorf("eid: atom %q has %d components, want %d", atom, len(parts), s.Width())
		}
		row := make(tableau.VarTuple, s.Width())
		for a, tok := range parts {
			tok = strings.TrimSpace(tok)
			if tok == "" || strings.ContainsAny(tok, "() &") {
				return nil, fmt.Errorf("eid: bad variable token %q", tok)
			}
			if prev, seen := colOf[tok]; seen && prev != a {
				return nil, fmt.Errorf("eid: variable %q appears in two columns; typing forbids this", tok)
			}
			colOf[tok] = a
			v, okv := varOf[a][tok]
			if !okv {
				v = next[a]
				next[a]++
				varOf[a][tok] = v
			}
			row[a] = v
		}
		return row, nil
	}
	collect := func(src string) ([]tableau.VarTuple, error) {
		var out []tableau.VarTuple
		for _, atom := range strings.Split(src, "&") {
			if strings.TrimSpace(atom) == "" {
				continue
			}
			row, err := parseAtom(atom)
			if err != nil {
				return nil, err
			}
			out = append(out, row)
		}
		return out, nil
	}
	antecedents, err := collect(left)
	if err != nil {
		return nil, err
	}
	conclusions, err := collect(right)
	if err != nil {
		return nil, err
	}
	if len(antecedents) == 0 || len(conclusions) == 0 {
		return nil, fmt.Errorf("eid: need antecedents and conclusions in %q", input)
	}
	return New(s, antecedents, conclusions, name)
}

// MustParse is Parse that panics on error.
func MustParse(s *relation.Schema, input, name string) *EID {
	e, err := Parse(s, input, name)
	if err != nil {
		panic(err)
	}
	return e
}

// PaperExample returns the paper's EID example over the garment schema.
func PaperExample() (*relation.Schema, *EID) {
	s := relation.MustSchema("SUPPLIER", "STYLE", "SIZE")
	e := MustParse(s, "R(a, b, c) & R(a, b', c') -> R(a*, b, c) & R(a*, b, c')", "paper-eid")
	return s, e
}

// Format renders the EID in its textual syntax.
func (e *EID) Format() string {
	s := e.Schema()
	atom := func(r tableau.VarTuple) string {
		var b strings.Builder
		b.WriteString("R(")
		for a, v := range r {
			if a > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s%d", strings.ToLower(s.Name(relation.Attr(a))), int(v))
		}
		b.WriteString(")")
		return b.String()
	}
	var b strings.Builder
	for i := 0; i < e.numAnte; i++ {
		if i > 0 {
			b.WriteString(" & ")
		}
		b.WriteString(atom(e.tab.Row(i)))
	}
	b.WriteString(" -> ")
	for i := 0; i < e.NumConclusions(); i++ {
		if i > 0 {
			b.WriteString(" & ")
		}
		b.WriteString(atom(e.Conclusion(i)))
	}
	return b.String()
}
