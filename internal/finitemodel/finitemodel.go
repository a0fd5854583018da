// Package finitemodel implements a brute-force finite-database
// counterexample search for template dependency inference: given D and D0,
// it enumerates small typed instances looking for one that satisfies every
// member of D and violates D0.
//
// This is the database-side realization of the Main Theorem's second set
// {(D, D0) : D0 fails in some finite database satisfying D}: enumerating
// all finite databases is a genuine semidecision procedure for membership.
// It complements the chase (which certifies the first set) and the
// semigroup route of package reduction (which produces large structured
// counterexamples the enumeration could never reach).
//
// By default the search enumerates instances in a canonical order — tuples
// strictly increasing lexicographically, values per column restricted to
// first-occurrence order — pruning isomorphic duplicates; Options.Prune
// can disable both restrictions for ablation. Like internal/search, each
// size's decision tree is walked depth-first, children in ascending order,
// through a psearch.Meter, so the counterexample returned is the
// lexicographically least one the window contains (see DESIGN.md §8).
package finitemodel

import (
	"fmt"

	"templatedep/internal/budget"
	"templatedep/internal/obs"
	"templatedep/internal/psearch"
	"templatedep/internal/relation"
	"templatedep/internal/td"
)

// Options bounds the enumeration.
type Options struct {
	// Sizes is the inclusive window of instance sizes (tuple counts)
	// enumerated — a structural coordinate, not a meter. A zero Lo means
	// 1; a zero (or too-small) Hi means DefaultSizes.Hi.
	Sizes budget.Range
	// Governor bounds the enumeration: its nodes meter caps search nodes,
	// and its context is polled every psearch.Batch nodes. Nil resolves to
	// DefaultLimits.
	Governor *budget.Governor
	// Sink receives search_node events (Src "finitemodel", Order carrying
	// the instance size; one per psearch.Batch nodes, plus each size's
	// remainder) and the final verdict. Nil disables emission. See
	// docs/OBSERVABILITY.md.
	Sink obs.Sink
	// Prune selects symmetry breaking: psearch.PruneSymmetry (the zero
	// value) enumerates canonical instances only (lex-increasing tuples,
	// first-occurrence value order per column); psearch.PruneNone
	// enumerates every value combination — the ablation baseline.
	Prune psearch.Prune
}

// DefaultSizes is the size window an unconfigured enumeration covers —
// conservative, for narrow schemas.
var DefaultSizes = budget.Range{Lo: 1, Hi: 4}

// DefaultLimits is the node budget an ungoverned enumeration runs under.
var DefaultLimits = budget.Limits{Nodes: 2_000_000}

// Result is the outcome of FindCounterexample.
type Result struct {
	// Instance is the counterexample database; nil when none was found.
	Instance *relation.Instance
	// NodesVisited counts enumeration nodes, up to the counterexample when
	// one was found.
	NodesVisited int
	// Budget reports how the governor cut the search short; zero (ok)
	// means the size window was covered.
	Budget budget.Outcome
}

// Status renders the outcome for display and events: "found",
// "exhausted-within-bounds" (the window was covered with no counterexample
// — not a proof that none exists at all), or the budget stop.
func (r Result) Status() string {
	switch {
	case r.Instance != nil:
		return "found"
	case r.Budget.Stopped():
		return r.Budget.String()
	}
	return "exhausted-within-bounds"
}

// FindCounterexample searches for a finite instance satisfying every
// dependency in deps and violating d0.
func FindCounterexample(deps []*td.TD, d0 *td.TD, opt Options) (Result, error) {
	if opt.Sizes.Lo <= 0 {
		opt.Sizes.Lo = 1
	}
	if opt.Sizes.Hi < opt.Sizes.Lo {
		opt.Sizes.Hi = DefaultSizes.Hi
		if opt.Sizes.Hi < opt.Sizes.Lo {
			opt.Sizes.Hi = opt.Sizes.Lo
		}
	}
	schema := d0.Schema()
	if err := sameSchema(deps, schema); err != nil {
		return Result{}, err
	}
	g := budget.Resolve(opt.Governor, DefaultLimits)
	m := psearch.NewMeter(g, opt.Sink, "finitemodel")
	finish := func(r Result) (Result, error) {
		r.NodesVisited = m.Nodes()
		m.Finish(r.Status(), r.Budget)
		return r, nil
	}
	// A procedure whose governor is already stopped must refuse to start:
	// without this, a run cancelled during an earlier stage could still
	// produce a fresh (if genuine) answer from the first node batch,
	// making the overall verdict depend on checkpoint timing.
	if o := g.Interrupted(); o.Stopped() {
		return finish(Result{Budget: o})
	}
	s := &searcher{schema: schema, deps: deps, d0: d0, opt: opt, meter: m}
	width := schema.Width()
	for n := opt.Sizes.Lo; n <= opt.Sizes.Hi; n++ {
		m.Window(n)
		s.walk(&instState{tup: make(relation.Tuple, width), used: make([]int, width)}, n)
		if s.found != nil {
			return finish(Result{Instance: s.found})
		}
		if o := m.Stop(); o.Stopped() {
			return finish(Result{Budget: o})
		}
	}
	return finish(Result{})
}

type searcher struct {
	schema *relation.Schema
	deps   []*td.TD
	d0     *td.TD
	opt    Options
	meter  *psearch.Meter
	// found is the counterexample, set by the walk's leaf check.
	found *relation.Instance
}

// instState is the walk's position in the decision tree: the committed
// tuples, the partially filled current tuple, and the per-column
// first-occurrence counters. A state with n committed tuples is a leaf
// (the candidate instance is complete).
type instState struct {
	tuples []relation.Tuple
	tup    relation.Tuple
	col    int
	used   []int
}

// walk visits st, then its subtree depth-first, for instances of exactly
// n tuples. It returns false once the walk must stop: a counterexample was
// found (s.found) or the meter refused a node.
func (s *searcher) walk(st *instState, n int) bool {
	if !s.meter.Node() {
		return false
	}
	if len(st.tuples) == n {
		s.found = s.checkLeaf(st.tuples, n)
		return s.found == nil
	}
	return s.branch(st, func() bool { return s.walk(st, n) })
}

// branch enumerates the children of non-leaf state st in canonical order —
// the child-generation rule (value caps, lex-least tuple insertion). visit
// sees st mutated into the child; returning false stops the enumeration,
// and branch then returns false. st is restored before branch returns.
func (s *searcher) branch(st *instState, visit func() bool) bool {
	width := s.schema.Width()
	if st.col == width {
		// Tuple complete. Under symmetry pruning only lex-increasing tuple
		// sequences are kept: any instance is a set, so some permutation of
		// its tuples is sorted, and that ordering is enumerated instead.
		if s.opt.Prune == psearch.PruneSymmetry {
			if k := len(st.tuples); k > 0 && !lexLess(st.tuples[k-1], st.tup) {
				return true
			}
		}
		saved := st.tup
		st.tuples = append(st.tuples, st.tup.Clone())
		st.tup = make(relation.Tuple, width)
		st.col = 0
		ok := visit()
		st.tuples = st.tuples[:len(st.tuples)-1]
		st.tup = saved
		st.col = width
		return ok
	}
	// Value choice for the current column. Under symmetry pruning values
	// appear in first-occurrence order: the next value may exceed the
	// largest used so far by at most one (fresh values are interchangeable
	// by a column-wise renaming, so only the least fresh one is tried).
	// At most Sizes.Hi values per column: each tuple contributes one value
	// per column, so more values than tuples never helps.
	col := st.col
	limit := s.opt.Sizes.Hi - 1
	if s.opt.Prune == psearch.PruneSymmetry && st.used[col] < limit {
		limit = st.used[col]
	}
	for v := 0; v <= limit; v++ {
		st.tup[col] = relation.Value(v)
		fresh := s.opt.Prune == psearch.PruneSymmetry && v == st.used[col]
		if fresh {
			st.used[col]++
		}
		st.col = col + 1
		ok := visit()
		st.col = col
		if fresh {
			st.used[col]--
		}
		if !ok {
			return false
		}
	}
	return true
}

// checkLeaf verifies one complete candidate: the tuples must form an
// instance of exactly n distinct tuples violating D0 and satisfying every
// member of D. D0 is checked first, as FindParity does: almost every small
// candidate over a reduction's schema satisfies it, and one check of D0
// spares the hundreds of dependency checks such a candidate would cost.
// The order changes no answer, since a leaf is returned only when both
// checks pass.
func (s *searcher) checkLeaf(tuples []relation.Tuple, n int) *relation.Instance {
	inst := relation.NewInstance(s.schema)
	for _, t := range tuples {
		if _, _, err := inst.Add(t); err != nil {
			return nil
		}
	}
	if inst.Len() != n {
		return nil // duplicate tuples; skip
	}
	if ok, _ := s.d0.Satisfies(inst); ok {
		return nil
	}
	if !satisfiesAll(s.deps, inst) {
		return nil
	}
	return inst
}

// sameSchema reports an error unless every dependency is over schema.
func sameSchema(deps []*td.TD, schema *relation.Schema) error {
	for i, d := range deps {
		if !d.Schema().Equal(schema) {
			return fmt.Errorf("finitemodel: dependency %d has a different schema", i)
		}
	}
	return nil
}

// satisfiesAll reports whether inst satisfies every member of deps.
func satisfiesAll(deps []*td.TD, inst *relation.Instance) bool {
	for _, d := range deps {
		if ok, _ := d.Satisfies(inst); !ok {
			return false
		}
	}
	return true
}

// lexLess is the strict lexicographic order on tuples. Mismatched lengths
// (which a single schema never produces) compare by longest common prefix,
// shorter first, so the order stays total; zero-length tuples compare
// equal.
func lexLess(a, b relation.Tuple) bool {
	m := len(a)
	if len(b) < m {
		m = len(b)
	}
	for i := 0; i < m; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
