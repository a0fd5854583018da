// Package search implements a finite-model finder for the semigroup side of
// the Gurevich–Lewis Main Lemma: given a presentation E over an alphabet S
// with distinguished symbols A0 and 0, it looks for a finite S-generated
// semigroup WITHOUT identity, having the cancellation property (conditions
// (i) and (ii)), in which every equation of E holds but A0 = 0 fails.
//
// Finding such a model certifies membership of the instance in the Main
// Theorem's second set: by Reduction Theorem part (B) it yields a finite
// database satisfying D in which D0 fails. Together with the equational
// closure of internal/words (which certifies membership in the first set),
// this realizes the two semi-procedures whose domains the paper proves
// effectively inseparable.
//
// The search enumerates multiplication tables by backtracking over cells
// with constraint propagation:
//
//   - element 0 is the zero (its row and column are pinned);
//   - symbol A0 is interpreted as element 1 (any model can be relabeled);
//   - (2,1) equations pin single cells before the search starts;
//   - condition (ii) forbids any cell x·y = x or x·y = y with the repeated
//     element nonzero;
//   - condition (i) is enforced by keeping rows and columns injective off
//     zero;
//   - associativity is pruned on every fully determined triple and
//     re-verified at the leaves.
//
// Symmetry breaking (Options.Prune, on by default; DESIGN.md §8) exploits
// that any witness can be relabeled by a permutation fixing 0 and 1: free
// symbols are assigned in canonical first-occurrence order, and free cells
// only receive values at most one above the largest element designated so
// far (the least-number heuristic). Each order's tree is walked
// depth-first, children in ascending order, so the witness returned is the
// lexicographically least one the window contains.
//
// The zero Options searches the DefaultOrders window under DefaultLimits.
package search

import (
	"fmt"
	"maps"

	"templatedep/internal/budget"
	"templatedep/internal/obs"
	"templatedep/internal/psearch"
	"templatedep/internal/semigroup"
	"templatedep/internal/words"
)

// Options bounds the model search.
type Options struct {
	// Orders is the inclusive window of semigroup orders tried — a
	// structural coordinate, not a meter. A zero Lo means 2 (the smallest
	// identity-free order of interest); a zero Hi means DefaultOrders.Hi,
	// and a Hi below Lo is raised to Lo.
	Orders budget.Range
	// Governor bounds the search: its nodes meter caps the total number of
	// backtracking nodes across all orders and assignments, and its
	// context is polled every psearch.Batch nodes, keeping the inner loop
	// free of governor traffic. Nil resolves to DefaultLimits.
	Governor *budget.Governor
	// QuotientClasses > 0 tries the nilpotent-quotient construction
	// (classes 2..QuotientClasses) BEFORE the table search; witnesses found
	// this way cost no search nodes. Sound but incomplete, hence opt-in.
	QuotientClasses int
	// Sink receives search_node events (one per psearch.Batch nodes, plus
	// each order's remainder) and the final verdict. Nil disables
	// emission. See docs/OBSERVABILITY.md.
	Sink obs.Sink
	// Prune selects symmetry breaking: psearch.PruneSymmetry (the zero
	// value) enables canonical assignment enumeration and least-number
	// value capping; psearch.PruneNone searches exhaustively — the
	// ablation baseline kept for benchmarks and soundness tests.
	Prune psearch.Prune
}

// DefaultOrders is the order window an unconfigured search covers.
var DefaultOrders = budget.Range{Lo: 2, Hi: 6}

// DefaultLimits is the node budget an ungoverned search runs under.
var DefaultLimits = budget.Limits{Nodes: 5_000_000}

// Result is the outcome of FindCounterModel.
type Result struct {
	// Interpretation witnesses Main Lemma failure for the ORIGINAL
	// presentation; nil when no model was found.
	Interpretation *semigroup.Interpretation
	// Presentation is the presentation the witness interprets (the input).
	Presentation *words.Presentation
	// NodesVisited counts backtracking nodes: completed symbol
	// assignments and table states, up to the witness when one was found.
	NodesVisited int
	// Budget reports how the governor cut the search short; zero (ok)
	// means the order window was covered.
	Budget budget.Outcome
}

// Status renders the search outcome for display and events: "model-found",
// "no-model-within-bounds" (the window was covered without a witness — NOT
// a proof that none exists), or the budget stop ("exhausted:nodes",
// "cancelled", "deadline").
func (r Result) Status() string {
	switch {
	case r.Interpretation != nil:
		return "model-found"
	case r.Budget.Stopped():
		return r.Budget.String()
	}
	return "no-model-within-bounds"
}

// FindCounterModel searches for a finite cancellation counterexample to the
// Main Lemma goal of p. Presentations not in (2,1) form are normalized
// first; a witness for the normalized form is mapped back to the original
// alphabet through the normalization's aliases.
func FindCounterModel(p *words.Presentation, opt Options) (Result, error) {
	if opt.Orders.Lo < 2 {
		opt.Orders.Lo = 2
	}
	if opt.Orders.Hi == 0 {
		opt.Orders.Hi = DefaultOrders.Hi
	}
	if opt.Orders.Hi < opt.Orders.Lo {
		opt.Orders.Hi = opt.Orders.Lo
	}
	p = p.WithZeroEquations()

	g := budget.Resolve(opt.Governor, DefaultLimits)
	m := psearch.NewMeter(g, opt.Sink, "search")
	finish := func(r Result) (Result, error) {
		r.Presentation, r.NodesVisited = p, m.Nodes()
		m.Finish(r.Status(), r.Budget)
		return r, nil
	}
	// Refuse to start under an already-stopped governor, so a run cancelled
	// during an earlier stage cannot produce an answer (the overall verdict
	// must not depend on checkpoint timing).
	if o := g.Interrupted(); o.Stopped() {
		return finish(Result{Budget: o})
	}
	if opt.QuotientClasses > 0 {
		wit, ok, err := BestNilpotentQuotientWitness(p, opt.QuotientClasses)
		if err != nil {
			return Result{}, err
		}
		if ok {
			return finish(Result{Interpretation: wit})
		}
	}

	work := p
	var norm *words.Normalization
	if !p.IsTwoOne() {
		var err error
		norm, err = words.Normalize(p)
		if err != nil {
			return Result{}, err
		}
		work = norm.Presentation
	}

	s := &searcher{pres: work, opt: opt, meter: m}
	for n := opt.Orders.Lo; n <= opt.Orders.Hi; n++ {
		m.Window(n)
		if found := s.searchOrder(n); found != nil {
			in, err := mapBack(p, norm, found)
			if err != nil {
				return Result{}, err
			}
			if err := in.IsModelOfMainLemmaFailure(p); err != nil {
				return Result{}, fmt.Errorf("search: internal error: found model fails verification: %w", err)
			}
			return finish(Result{Interpretation: in})
		}
		if o := m.Stop(); o.Stopped() {
			return finish(Result{Budget: o})
		}
	}
	return finish(Result{})
}

// mapBack restricts a witness for the normalized presentation to the
// original alphabet (original symbol s is interpreted as the value of its
// alias representative).
func mapBack(orig *words.Presentation, norm *words.Normalization, in *semigroup.Interpretation) (*semigroup.Interpretation, error) {
	if norm == nil {
		return in, nil
	}
	assign := make(map[words.Symbol]semigroup.Elem, orig.Alphabet.Size())
	for _, s := range orig.Alphabet.Symbols() {
		r := s
		if rep, ok := norm.Aliases[s]; ok {
			r = rep
		}
		v, ok := in.Assign[r]
		if !ok {
			return nil, fmt.Errorf("search: representative of %s unassigned", orig.Alphabet.Name(s))
		}
		assign[s] = v
	}
	return semigroup.NewInterpretation(in.Table, orig.Alphabet, assign)
}

// searcher holds the state shared across orders.
type searcher struct {
	pres  *words.Presentation
	opt   Options
	meter *psearch.Meter
	// found is the verified witness, set by the walk's leaf check.
	found *semigroup.Interpretation
}

const unset = semigroup.Elem(-1)

// tableState is the walk's table under the current symbol assignment: the
// partially filled table, its free cells in walk order, and the largest
// element the pins designate — the least-number heuristic's starting bound.
// One state serves every assignment of an order.
type tableState struct {
	assign map[words.Symbol]semigroup.Elem
	cells  []int
	mul    []semigroup.Elem
	maxEl  int
}

// searchOrder looks for a model of exactly order n. Returns the witness
// interpretation over the searcher's (normalized) presentation, or nil.
//
// Symbol assignments are enumerated in canonical order; each completed
// assignment is a node, and the table it pins is walked depth-first before
// the next assignment is tried.
func (s *searcher) searchOrder(n int) *semigroup.Interpretation {
	a := s.pres.Alphabet
	syms := a.Symbols()
	free := make([]words.Symbol, 0, len(syms))
	for _, sym := range syms {
		if sym != a.Zero() && sym != a.A0() {
			free = append(free, sym)
		}
	}
	assign := make(map[words.Symbol]semigroup.Elem, len(syms))
	assign[a.Zero()] = 0
	assign[a.A0()] = 1
	st := &tableState{assign: assign, mul: make([]semigroup.Elem, n*n)}

	// enumAssign walks free-symbol assignments; under PruneSymmetry the
	// image of each next symbol is capped one above the largest image so
	// far (first-occurrence order — any assignment is a relabeling of a
	// canonical one by a permutation fixing 0 and 1). Returns false to
	// stop the enumeration (witness found or budget stop).
	var enumAssign func(i, maxImg int) bool
	enumAssign = func(i, maxImg int) bool {
		if i == len(free) {
			// Every completed assignment is a node, whether or not its pins
			// survive: on presentations with many symbols almost all
			// assignments die right here, and without charging them the
			// node budget would never be consulted — the enumeration is
			// exponential in the alphabet size.
			if !s.meter.Node() {
				return false
			}
			return !s.pinTable(st, n) || s.walk(st, n, 0, st.maxEl)
		}
		hi := n - 1
		if s.opt.Prune == psearch.PruneSymmetry && maxImg+1 < hi {
			hi = maxImg + 1
		}
		for e := 0; e <= hi; e++ {
			assign[free[i]] = semigroup.Elem(e)
			if !enumAssign(i+1, max(maxImg, e)) {
				return false
			}
		}
		delete(assign, free[i])
		return true
	}
	enumAssign(0, 1)
	return s.found
}

// pinTable rebuilds st's table for its current assignment: zero row and
// column, plus the cells forced by (2,1) equations. Returns false when the
// pins contradict each other or the cancellation conditions.
func (s *searcher) pinTable(st *tableState, n int) bool {
	mul, assign := st.mul, st.assign
	for i := range mul {
		mul[i] = unset
	}
	at := func(x, y semigroup.Elem) semigroup.Elem { return mul[int(x)*n+int(y)] }
	set := func(x, y, v semigroup.Elem) { mul[int(x)*n+int(y)] = v }

	for i := 0; i < n; i++ {
		set(semigroup.Elem(i), 0, 0)
		set(0, semigroup.Elem(i), 0)
	}
	for _, e := range s.pres.Equations {
		if !e.IsTwoOne() {
			continue // non-(2,1) presentations were normalized upstream
		}
		x, y := assign[e.LHS[0]], assign[e.LHS[1]]
		v := assign[e.RHS[0]]
		if cur := at(x, y); cur != unset && cur != v {
			return false // contradictory pinning under this assignment
		}
		// Cancellation conditions on pinned cells.
		if v == x && x != 0 {
			return false
		}
		if v == y && y != 0 {
			return false
		}
		set(x, y, v)
	}
	if !injectiveOffZero(mul, n) {
		return false
	}

	st.cells = st.cells[:0]
	for i := range mul {
		if mul[i] == unset {
			st.cells = append(st.cells, i)
		}
	}
	// Assignment images (and the pinned cells, whose coordinates and
	// values are assignment images) are designated; 1 is always present.
	st.maxEl = 1
	for _, v := range assign {
		st.maxEl = max(st.maxEl, int(v))
	}
	return true
}

// walk visits the table state whose free cells before ci are decided, then
// its subtree depth-first. It returns false once the walk must stop: a
// verified model was found (s.found) or the meter refused a node.
func (s *searcher) walk(st *tableState, n, ci, maxEl int) bool {
	if !s.meter.Node() {
		return false
	}
	if ci == len(st.cells) {
		s.found = s.verifyLeaf(st.mul, n, st.assign)
		return s.found == nil
	}
	return s.branch(st, n, ci, maxEl, func(nm int) bool {
		return s.walk(st, n, ci+1, nm)
	})
}

// branch enumerates the consistent values for free cell ci of state st in
// ascending order — the child-generation rule (condition (ii),
// least-number cap, local consistency). visit sees st.mul with the cell
// set and receives the updated designated-element bound; returning false
// stops the enumeration, and branch then returns false. The cell is unset
// again before branch returns.
func (s *searcher) branch(st *tableState, n, ci, maxEl int, visit func(maxEl int) bool) bool {
	idx := st.cells[ci]
	x, y := idx/n, idx%n
	hi := n - 1
	if s.opt.Prune == psearch.PruneSymmetry {
		// Least-number heuristic: a value above every designated element
		// +1 is a relabeling of the +1 case by a transposition fixing the
		// designated set.
		if m := max(maxEl, x, y); m+1 < hi {
			hi = m + 1
		}
	}
	for v := 0; v <= hi; v++ {
		if v == x && x != 0 {
			continue // condition (ii): x·y = x
		}
		if v == y && y != 0 {
			continue // condition (ii): x·y = y
		}
		st.mul[idx] = semigroup.Elem(v)
		if cellConsistent(st.mul, n, semigroup.Elem(x), semigroup.Elem(y)) && !visit(max(maxEl, x, y, v)) {
			st.mul[idx] = unset
			return false
		}
	}
	st.mul[idx] = unset
	return true
}

// cellConsistent checks local constraints after setting cell (x, y):
// injectivity off zero in row x and column y, and associativity on every
// triple that the new cell completes.
func cellConsistent(mul []semigroup.Elem, n int, x, y semigroup.Elem) bool {
	v := mul[int(x)*n+int(y)]
	if v != 0 {
		for yy := 0; yy < n; yy++ {
			if semigroup.Elem(yy) != y && mul[int(x)*n+yy] == v {
				return false // condition (i), left cancellation
			}
		}
		for xx := 0; xx < n; xx++ {
			if semigroup.Elem(xx) != x && mul[xx*n+int(y)] == v {
				return false // condition (i), right cancellation
			}
		}
	}
	at := func(a, b semigroup.Elem) semigroup.Elem {
		if a == unset || b == unset {
			return unset
		}
		return mul[int(a)*n+int(b)]
	}
	// Triples (x, y, c): (x·y)·c vs x·(y·c).
	for c := 0; c < n; c++ {
		ce := semigroup.Elem(c)
		l := at(v, ce)
		yc := at(y, ce)
		r := at(x, yc)
		if l != unset && r != unset && l != r {
			return false
		}
		// Triples (c, x, y): (c·x)·y vs c·(x·y).
		cx := at(ce, x)
		l2 := at(cx, y)
		r2 := at(ce, v)
		if l2 != unset && r2 != unset && l2 != r2 {
			return false
		}
		// Triples (x, c, y) where x·c or c·y routes through the new cell are
		// covered by the two patterns above when the completing cell is
		// (x, y); remaining patterns are caught at the leaf.
	}
	return true
}

// injectiveOffZero verifies condition-(i) injectivity on the current
// (partially filled) table: no nonzero value repeats within a row or a
// column. Zero entries are exempt (condition (i) only constrains products
// off the zero ideal), so an all-zero row is fine; n = 0 is vacuously
// injective.
func injectiveOffZero(mul []semigroup.Elem, n int) bool {
	for x := 0; x < n; x++ {
		seenRow := make(map[semigroup.Elem]bool)
		seenCol := make(map[semigroup.Elem]bool)
		for y := 0; y < n; y++ {
			if v := mul[x*n+y]; v != unset && v != 0 {
				if seenRow[v] {
					return false
				}
				seenRow[v] = true
			}
			if v := mul[y*n+x]; v != unset && v != 0 {
				if seenCol[v] {
					return false
				}
				seenCol[v] = true
			}
		}
	}
	return true
}

// verifyLeaf runs the full, authoritative checks on a complete table and
// returns the witness it certifies, or nil.
func (s *searcher) verifyLeaf(mul []semigroup.Elem, n int, assign map[words.Symbol]semigroup.Elem) *semigroup.Interpretation {
	rows := make([][]semigroup.Elem, n)
	for i := 0; i < n; i++ {
		rows[i] = append([]semigroup.Elem(nil), mul[i*n:(i+1)*n]...)
	}
	tb, err := semigroup.New(rows, fmt.Sprintf("search-%d", n))
	if err != nil {
		return nil // not associative
	}
	if _, hasID := tb.Identity(); hasID {
		return nil
	}
	if err := semigroup.CheckCancellation(tb); err != nil {
		return nil
	}
	in, err := semigroup.NewInterpretation(tb, s.pres.Alphabet, assign)
	if err != nil {
		return nil
	}
	ok, _, err := in.SatisfiesPresentation(s.pres)
	if err != nil || !ok {
		return nil
	}
	// A0 != 0 holds by construction (A0 -> 1, zero -> 0). The walk goes on
	// rewriting assign, so the witness keeps a copy.
	in.Assign = maps.Clone(assign)
	return in
}
