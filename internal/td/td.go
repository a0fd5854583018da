// Package td implements (typed) template dependencies, the dependency class
// of Sadri and Ullman (1980) whose inference problem the paper proves
// undecidable.
//
// A template dependency states: whenever tuples matching the antecedent
// patterns are all present in the database, a tuple matching the conclusion
// pattern is present too. Antecedent variables are universally quantified;
// conclusion-only variables are existentially quantified. Under the typing
// restriction a variable belongs to exactly one column, which the
// representation enforces structurally (variables are per-column indices).
//
// A TD is "full" when every conclusion variable appears among the
// antecedents, and "embedded" otherwise. Inference for full TDs is
// decidable (the chase terminates); the paper's undecidability result is
// about the embedded case.
package td

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"templatedep/internal/relation"
	"templatedep/internal/tableau"
)

// TD is a template dependency: antecedent pattern rows plus one conclusion
// row, sharing a typed variable space.
type TD struct {
	name string
	// tab holds the antecedent rows followed by the conclusion row (last).
	tab *tableau.Tableau
}

// New builds a TD from antecedent rows and a conclusion row. At least one
// antecedent is required. Variables are shared across rows per column:
// equal indices in the same column denote the same variable.
func New(s *relation.Schema, antecedents []tableau.VarTuple, conclusion tableau.VarTuple, name string) (*TD, error) {
	if len(antecedents) == 0 {
		return nil, fmt.Errorf("td: a template dependency needs at least one antecedent")
	}
	rows := make([]tableau.VarTuple, 0, len(antecedents)+1)
	rows = append(rows, antecedents...)
	rows = append(rows, conclusion)
	tab, err := tableau.New(s, rows)
	if err != nil {
		return nil, err
	}
	return &TD{name: name, tab: tab}, nil
}

// MustNew is New that panics on error.
func MustNew(s *relation.Schema, antecedents []tableau.VarTuple, conclusion tableau.VarTuple, name string) *TD {
	d, err := New(s, antecedents, conclusion, name)
	if err != nil {
		panic(err)
	}
	return d
}

// Name returns the TD's descriptive name.
func (d *TD) Name() string { return d.name }

// Schema returns the TD's schema.
func (d *TD) Schema() *relation.Schema { return d.tab.Schema() }

// NumAntecedents returns the number of antecedent rows.
func (d *TD) NumAntecedents() int { return d.tab.Len() - 1 }

// Antecedent returns the i-th antecedent row.
func (d *TD) Antecedent(i int) tableau.VarTuple {
	if i < 0 || i >= d.NumAntecedents() {
		panic(fmt.Sprintf("td: antecedent index %d out of range", i))
	}
	return d.tab.Row(i)
}

// Conclusion returns the conclusion row.
func (d *TD) Conclusion() tableau.VarTuple { return d.tab.Row(d.tab.Len() - 1) }

// Tableau returns the combined tableau (antecedents then conclusion).
func (d *TD) Tableau() *tableau.Tableau { return d.tab }

// AntecedentVarCount returns, per column, how many variables occur in the
// antecedent rows (variables are numbered so antecedent variables come
// first within each column — guaranteed by tableau renumbering order).
func (d *TD) antecedentVarCounts() []int {
	counts := make([]int, d.Schema().Width())
	for ri := 0; ri < d.NumAntecedents(); ri++ {
		for a, v := range d.tab.Row(ri) {
			if int(v)+1 > counts[a] {
				counts[a] = int(v) + 1
			}
		}
	}
	return counts
}

// IsFull reports whether every conclusion variable occurs in an antecedent.
func (d *TD) IsFull() bool {
	counts := d.antecedentVarCounts()
	for a, v := range d.Conclusion() {
		if int(v) >= counts[a] {
			return false
		}
	}
	return true
}

// ExistentialColumns returns the columns whose conclusion variable is
// existentially quantified (does not occur in the antecedents).
func (d *TD) ExistentialColumns() []relation.Attr {
	counts := d.antecedentVarCounts()
	var out []relation.Attr
	for a, v := range d.Conclusion() {
		if int(v) >= counts[a] {
			out = append(out, relation.Attr(a))
		}
	}
	return out
}

// IsTrivial reports whether the TD holds in every database: true iff some
// antecedent row agrees with the conclusion on every universally bound
// column (the conclusion tuple can then be chosen to be that row).
func (d *TD) IsTrivial() bool {
	counts := d.antecedentVarCounts()
	concl := d.Conclusion()
	for ri := 0; ri < d.NumAntecedents(); ri++ {
		row := d.tab.Row(ri)
		ok := true
		for a, v := range concl {
			if int(v) >= counts[a] {
				continue // existential: matches anything
			}
			if row[a] != v {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// Satisfies reports whether the finite instance satisfies the TD. When it
// does not, the returned assignment is a counterexample match of the
// antecedents (cloned; safe to retain).
func (d *TD) Satisfies(inst *relation.Instance) (bool, tableau.Assignment) {
	var witness tableau.Assignment
	ok := true
	d.tab.EachPrefixHomomorphism(inst, nil, d.NumAntecedents(), func(as tableau.Assignment) bool {
		if !tableau.RowSatisfiable(d.Conclusion(), as, inst) {
			ok = false
			witness = as.Clone()
			return false
		}
		return true
	})
	return ok, witness
}

// FrozenAntecedents freezes the TD's antecedent rows into an instance (the
// canonical database of the antecedents) and returns it with the identity
// assignment over ALL the TD's variables; conclusion-only variables stay
// unbound in the assignment.
func (d *TD) FrozenAntecedents() (*relation.Instance, tableau.Assignment) {
	inst := relation.NewInstance(d.Schema())
	as := tableau.NewAssignment(d.tab)
	for ri := 0; ri < d.NumAntecedents(); ri++ {
		row := d.tab.Row(ri)
		tup := make(relation.Tuple, len(row))
		for a, v := range row {
			tup[a] = relation.Value(v)
			as[a][v] = relation.Value(v)
		}
		inst.MustAdd(tup)
	}
	return inst, as
}

// Format renders the TD in the textual syntax accepted by Parse:
//
//	R(a0, b0, c0) & R(a0, b1, c1) -> R(a2, b0, c1)
//
// Variable names are the column's prefix (ColumnPrefixes) followed by the
// variable index.
func (d *TD) Format() string {
	s := d.Schema()
	prefixes := ColumnPrefixes(s)
	atom := func(r tableau.VarTuple) string {
		var b strings.Builder
		b.WriteString("R(")
		for a, v := range r {
			if a > 0 {
				b.WriteString(", ")
			}
			b.WriteString(prefixes[a])
			b.WriteString(strconv.Itoa(int(v)))
		}
		b.WriteString(")")
		return b.String()
	}
	var b strings.Builder
	for i := 0; i < d.NumAntecedents(); i++ {
		if i > 0 {
			b.WriteString(" & ")
		}
		b.WriteString(atom(d.tab.Row(i)))
	}
	b.WriteString(" -> ")
	b.WriteString(atom(d.Conclusion()))
	return b.String()
}

// String renders the TD with its name.
func (d *TD) String() string {
	if d.name == "" {
		return d.Format()
	}
	return d.name + ": " + d.Format()
}

// ColumnPrefixes derives one variable-name prefix per column: the
// lower-cased column name stripped of digits and of every character the
// parsers split on (varPrefix), disambiguated with the column position
// whenever two columns collapse to the same prefix (K0' and K1' both
// yield k', A and a both yield a). Distinct prefixes per column keep
// the rendered text inside the typing restriction, so Format (and
// eid.Format, which names variables the same way) round-trips through
// Parse on every schema.
func ColumnPrefixes(s *relation.Schema) []string {
	n := s.Width()
	out := make([]string, n)
	count := make(map[string]int, n)
	for a := 0; a < n; a++ {
		out[a] = varPrefix(s.Name(relation.Attr(a)))
		count[out[a]]++
	}
	for a := 0; a < n; a++ {
		if count[out[a]] > 1 {
			out[a] = out[a] + "c" + strconv.Itoa(a) + "v"
		}
	}
	return out
}

func varPrefix(attrName string) string {
	p := strings.ToLower(attrName)
	// Strip characters that would collide with the index digits, and
	// those the parsers split on or refuse in a token: whitespace, the
	// atom and list punctuation, and '>', without which no "->" or "=>"
	// can form.
	p = strings.Map(func(r rune) rune {
		if r >= '0' && r <= '9' || unicode.IsSpace(r) || strings.ContainsRune(",()&>", r) {
			return -1
		}
		return r
	}, p)
	if p == "" {
		p = "x"
	}
	return p
}
