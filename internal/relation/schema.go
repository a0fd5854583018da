// Package relation implements the paper's database substrate: a single
// relation R with a fixed set of attributes (columns) under the typing
// restriction — the domains of distinct attributes are disjoint. Values are
// represented as integers scoped per attribute, which makes cross-column
// value confusion unrepresentable, exactly as the typing restriction
// demands ("no variable can appear in two different columns").
package relation

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Attr is an attribute (column) index within a Schema.
type Attr int

// Schema is an ordered list of named attributes of the single relation R.
type Schema struct {
	names []string
	index map[string]Attr
}

// NewSchema builds a schema from attribute names, which must be non-empty
// and distinct.
func NewSchema(names []string) (*Schema, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("relation: schema needs at least one attribute")
	}
	s := &Schema{names: make([]string, len(names)), index: make(map[string]Attr, len(names))}
	for i, n := range names {
		if n == "" {
			return nil, fmt.Errorf("relation: empty attribute name at position %d", i)
		}
		if _, dup := s.index[n]; dup {
			return nil, fmt.Errorf("relation: duplicate attribute %q", n)
		}
		s.names[i] = n
		s.index[n] = Attr(i)
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error.
func MustSchema(names ...string) *Schema {
	s, err := NewSchema(names)
	if err != nil {
		panic(err)
	}
	return s
}

// Width returns the number of attributes.
func (s *Schema) Width() int { return len(s.names) }

// Name returns the name of attribute a.
func (s *Schema) Name(a Attr) string {
	if int(a) < 0 || int(a) >= len(s.names) {
		return fmt.Sprintf("?%d", int(a))
	}
	return s.names[a]
}

// Attr looks up an attribute by name.
func (s *Schema) Attr(name string) (Attr, bool) {
	a, ok := s.index[name]
	return a, ok
}

// MustAttr looks up an attribute by name, panicking if absent.
func (s *Schema) MustAttr(name string) Attr {
	a, ok := s.index[name]
	if !ok {
		panic(fmt.Sprintf("relation: no attribute %q", name))
	}
	return a
}

// Attrs returns all attributes in order.
func (s *Schema) Attrs() []Attr {
	out := make([]Attr, len(s.names))
	for i := range s.names {
		out[i] = Attr(i)
	}
	return out
}

// Names returns a copy of the attribute names.
func (s *Schema) Names() []string {
	out := make([]string, len(s.names))
	copy(out, s.names)
	return out
}

// Equal reports whether two schemas have identical attribute lists.
func (s *Schema) Equal(t *Schema) bool {
	if len(s.names) != len(t.names) {
		return false
	}
	for i := range s.names {
		if s.names[i] != t.names[i] {
			return false
		}
	}
	return true
}

// String renders the schema as R(A, B, ...).
func (s *Schema) String() string {
	return "R(" + strings.Join(s.names, ", ") + ")"
}

// Value is a data value. Values are scoped per attribute: Value 3 in column
// A and Value 3 in column B are unrelated individuals (the typing
// restriction makes the domains disjoint).
type Value int

// Tuple is one row of R: one value per attribute, in schema order.
type Tuple []Value

// Clone copies the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Equal reports component-wise equality.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// less orders equal-width tuples lexicographically.
func (t Tuple) less(u Tuple) bool {
	for i := range t {
		if t[i] != u[i] {
			return t[i] < u[i]
		}
	}
	return false
}

// hash folds the tuple into a 64-bit FNV-1a-style digest for map
// deduplication. Collisions are possible and harmless: the hash index maps
// digests to candidate row indices, and lookups verify with Equal.
func (t Tuple) hash() uint64 {
	h := uint64(1469598103934665603)
	for _, v := range t {
		h ^= uint64(v)
		h *= 1099511628211
	}
	return h
}

// Instance is a finite instance of the single relation R: a set of tuples.
// The zero value is not usable; construct with NewInstance.
type Instance struct {
	schema *Schema
	rows   []Tuple
	// index maps a tuple hash to the indices of rows with that hash; the
	// chain is scanned with Equal, so hash collisions only cost an extra
	// comparison. This replaces the old fmt.Fprintf string-key dedup, which
	// allocated a string per membership test.
	index map[uint64][]int
	// nextVal tracks, per attribute, the next unused value, for fresh-value
	// allocation during chase steps and model construction.
	nextVal []Value
	// postings[a][v] lists the indices of tuples with value v in attribute
	// a, in ascending order — the inverted index behind Matching, which the
	// chase's join and subsumption checks probe.
	postings []map[Value][]int
}

// NewInstance creates an empty instance over the schema.
func NewInstance(s *Schema) *Instance {
	postings := make([]map[Value][]int, s.Width())
	for i := range postings {
		postings[i] = make(map[Value][]int)
	}
	return &Instance{
		schema:   s,
		index:    make(map[uint64][]int),
		nextVal:  make([]Value, s.Width()),
		postings: postings,
	}
}

// find returns the row index holding a tuple equal to t, verifying hash
// matches with Equal.
func (in *Instance) find(t Tuple, h uint64) (int, bool) {
	for _, i := range in.index[h] {
		if in.rows[i].Equal(t) {
			return i, true
		}
	}
	return 0, false
}

// Schema returns the instance's schema.
func (in *Instance) Schema() *Schema { return in.schema }

// Len returns the number of tuples.
func (in *Instance) Len() int { return len(in.rows) }

// Add inserts a tuple (copied), returning its index and whether it was new.
// The tuple width must match the schema.
func (in *Instance) Add(t Tuple) (int, bool, error) {
	if len(t) != in.schema.Width() {
		return 0, false, fmt.Errorf("relation: tuple width %d does not match schema width %d", len(t), in.schema.Width())
	}
	for a, v := range t {
		if v < 0 {
			return 0, false, fmt.Errorf("relation: negative value %d in attribute %s", int(v), in.schema.Name(Attr(a)))
		}
		if v >= in.nextVal[a] {
			in.nextVal[a] = v + 1
		}
	}
	h := t.hash()
	if i, ok := in.find(t, h); ok {
		return i, false, nil
	}
	i := len(in.rows)
	in.rows = append(in.rows, t.Clone())
	in.index[h] = append(in.index[h], i)
	for a, v := range t {
		in.postings[a][v] = append(in.postings[a][v], i)
	}
	return i, true, nil
}

// Matching returns the indices of tuples whose attribute a holds value v
// (the posting list; callers must not mutate it).
func (in *Instance) Matching(a Attr, v Value) []int {
	return in.postings[a][v]
}

// MustAdd is Add that panics on error; for fixtures.
func (in *Instance) MustAdd(t Tuple) int {
	i, _, err := in.Add(t)
	if err != nil {
		panic(err)
	}
	return i
}

// Contains reports whether the tuple is present.
func (in *Instance) Contains(t Tuple) bool {
	if len(t) != in.schema.Width() {
		return false
	}
	_, ok := in.find(t, t.hash())
	return ok
}

// Tuple returns the i-th tuple (not copied; callers must not mutate).
func (in *Instance) Tuple(i int) Tuple { return in.rows[i] }

// Tuples returns the underlying tuple slice (not copied; callers must not
// mutate).
func (in *Instance) Tuples() []Tuple { return in.rows }

// FreshValue allocates a value never used before in attribute a.
func (in *Instance) FreshValue(a Attr) Value {
	v := in.nextVal[a]
	in.nextVal[a] = v + 1
	return v
}

// Clone deep-copies the instance.
func (in *Instance) Clone() *Instance {
	out := NewInstance(in.schema)
	out.rows = make([]Tuple, len(in.rows))
	for i, r := range in.rows {
		out.rows[i] = r.Clone()
	}
	for h, list := range in.index {
		out.index[h] = append([]int(nil), list...)
	}
	copy(out.nextVal, in.nextVal)
	for a := range in.postings {
		for v, list := range in.postings[a] {
			out.postings[a][v] = append([]int(nil), list...)
		}
	}
	return out
}

// ClonePrefix deep-copies the first n tuples into a fresh instance,
// rebuilding the hash index, posting lists, and fresh-value counters from
// those tuples alone. Because tuples are append-only, the result is exactly
// the instance as it stood when it held n tuples — including nextVal, which
// Add keeps at max-value+1 per column, so fresh-null numbering after the
// prefix replays identically. This is how a resumed chase rolls back a
// round its last lease stopped inside.
func (in *Instance) ClonePrefix(n int) *Instance {
	if n < 0 || n > len(in.rows) {
		n = len(in.rows)
	}
	out := NewInstance(in.schema)
	for _, r := range in.rows[:n] {
		out.MustAdd(r)
	}
	return out
}

// ActiveDomainSize returns the number of distinct values appearing in
// attribute a.
func (in *Instance) ActiveDomainSize(a Attr) int {
	seen := make(map[Value]bool)
	for _, r := range in.rows {
		seen[r[a]] = true
	}
	return len(seen)
}

// String renders the instance as a table, sorted lexicographically (by
// value, per column) for determinism.
func (in *Instance) String() string {
	var b strings.Builder
	b.WriteString(in.schema.String())
	b.WriteByte('\n')
	order := make([]int, len(in.rows))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		return in.rows[order[i]].less(in.rows[order[j]])
	})
	num := make([]byte, 0, 20)
	for _, ri := range order {
		b.WriteString("  (")
		for i, v := range in.rows[ri] {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(in.schema.Name(Attr(i)))
			num = strconv.AppendInt(num[:0], int64(v), 10)
			b.Write(num)
		}
		b.WriteString(")\n")
	}
	return b.String()
}
