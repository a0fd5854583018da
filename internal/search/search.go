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
// Two orthogonal accelerations sit on top (see DESIGN.md §8). Symmetry
// breaking (Options.Prune, on by default) exploits that any witness can be
// relabeled by a permutation fixing 0 and 1: free symbols are assigned in
// canonical first-occurrence order, and free cells only receive values at
// most one above the largest element designated so far (the least-number
// heuristic). Parallelism (Options.Workers) splits each order's
// backtracking tree at a prefix depth into independent subtree tasks run
// through internal/psearch, first witness wins with a deterministic
// lex-least tie-break, so the result is identical for every Workers value.
//
// The zero Options searches the DefaultOrders window under DefaultLimits.
package search

import (
	"fmt"

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
	// backtracking nodes across all orders and assignments (committed and
	// speculative alike), and its context is checked every nodeEventBatch
	// nodes, keeping the inner loop free of governor traffic. Nil resolves
	// to DefaultLimits.
	Governor *budget.Governor
	// QuotientClasses > 0 tries the nilpotent-quotient construction
	// (classes 2..QuotientClasses) BEFORE the table search; witnesses found
	// this way cost no search nodes. Sound but incomplete, hence opt-in.
	QuotientClasses int
	// Sink receives search_split, search_steal, and search_node events
	// (one aggregate per split wave) plus the final verdict. Nil disables
	// emission. See docs/OBSERVABILITY.md.
	Sink obs.Sink
	// Workers is the number of goroutines exploring subtree tasks; <= 1
	// searches serially. The witness, the node ledger, and the replayed
	// trace totals are identical for every value — only the worker
	// attribute of search_steal events depends on scheduling — as long as
	// the node budget is not exhausted mid-run (per-worker budget shares
	// may stop a parallel run at a different point than a serial one).
	Workers int
	// SplitDepth forces the table-cell prefix depth at which each order's
	// tree is split into subtree tasks; 0 grows the split adaptively until
	// at least taskTarget subtrees exist. The depth never affects results,
	// only load balance.
	SplitDepth int
	// Prune selects symmetry breaking: psearch.PruneSymmetry (the zero
	// value) enables canonical assignment enumeration and least-number
	// value capping; psearch.PruneNone searches exhaustively — the
	// ablation baseline kept for benchmarks and soundness tests.
	Prune psearch.Prune
}

// nodeEventBatch is the generation-phase governor checkpoint interval,
// matching psearch.DefaultBatch so cancellation latency is one batch
// everywhere.
const nodeEventBatch = 4096

// taskTarget is how many subtree tasks an adaptive split aims for: enough
// granularity to keep any worker count busy, small enough that the split
// frontier (one table copy per task) stays negligible. Fixed — never
// derived from Workers — so the committed node ledger is identical for
// every Workers value.
const taskTarget = 64

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
	// NodesVisited counts committed backtracking nodes: split-prefix nodes
	// plus every task up to and including the winning subtree — exactly
	// the nodes a serial run explores, whatever Workers is.
	NodesVisited int
	// SpeculativeNodes counts nodes parallel workers explored in subtrees
	// beyond the winning one — work a serial run would not have done. They
	// are charged to the governor but excluded from NodesVisited and from
	// the event stream, keeping both deterministic. Zero when Workers <= 1.
	SpeculativeNodes int
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

	if opt.QuotientClasses > 0 {
		wit, ok, err := BestNilpotentQuotientWitness(p, opt.QuotientClasses)
		if err != nil {
			return Result{}, err
		}
		if ok {
			return Result{Interpretation: wit, Presentation: p}, nil
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

	g := budget.Resolve(opt.Governor, DefaultLimits)
	s := &searcher{pres: work, gov: g, opt: opt, sink: opt.Sink,
		limited: g.Limit(budget.Nodes) > 0, remaining: g.Limit(budget.Nodes)}
	if !s.limited {
		// Ungoverned nodes meter: only the context can stop the search.
		s.remaining = int(^uint(0) >> 1)
	}
	// finish settles the meter and closes the trace: a budget stop event
	// when the governor cut the run, then the verdict, so partial traces
	// stay well formed.
	finish := func(r Result) Result {
		s.settleGen()
		r.SpeculativeNodes = s.spec
		if s.sink != nil {
			if r.Budget.Stopped() {
				typ := obs.EvBudgetExhausted
				if r.Budget.Code != budget.CodeExhausted {
					typ = obs.EvCancelled
				}
				s.sink.Event(obs.Event{Type: typ, Src: "search", Resource: r.Budget.Reason()})
			}
			s.sink.Event(obs.Event{Type: obs.EvVerdict, Src: "search", Verdict: r.Status(), N: s.nodes})
		}
		return r
	}
	// Refuse to start under an already-stopped governor, so a run cancelled
	// during an earlier stage cannot race the first node batch for an
	// answer (the overall verdict must not depend on checkpoint timing).
	if o := g.Interrupted(); o.Stopped() {
		return finish(Result{Presentation: p, Budget: o}), nil
	}
	for n := opt.Orders.Lo; n <= opt.Orders.Hi; n++ {
		s.order = n
		found, err := s.searchOrder(n)
		if err != nil {
			return Result{}, err
		}
		if s.remaining <= 0 && found == nil {
			out := s.stop
			if !out.Stopped() {
				out = budget.Exhausted(budget.Nodes)
			}
			return finish(Result{Presentation: p, NodesVisited: s.nodes, Budget: out}), nil
		}
		if found != nil {
			in, err := mapBack(p, norm, found)
			if err != nil {
				return Result{}, err
			}
			if err := in.IsModelOfMainLemmaFailure(p); err != nil {
				return Result{}, fmt.Errorf("search: internal error: found model fails verification: %w", err)
			}
			return finish(Result{Interpretation: in, Presentation: p, NodesVisited: s.nodes}), nil
		}
	}
	return finish(Result{Presentation: p, NodesVisited: s.nodes}), nil
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
	pres *words.Presentation
	gov  *budget.Governor
	opt  Options
	// limited reports whether the governor's nodes meter has a cap;
	// remaining is the countdown mirroring it (committed, speculative, and
	// split-generation nodes all count). A context stop zeroes it at the
	// next batch boundary.
	limited   bool
	remaining int
	// nodes is the committed ledger (generation + tasks up to the winner);
	// spec counts parallel overshoot.
	nodes int
	spec  int
	// genUnsettled is how many generation-phase nodes have not yet been
	// reported to the governor (task nodes are settled by psearch).
	genUnsettled int
	// stop records a context stop observed at a checkpoint.
	stop budget.Outcome
	// sink, when non-nil, receives the per-wave event groups; lastEmitted
	// tracks the committed count already covered by search_node events.
	sink        obs.Sink
	lastEmitted int
	order       int
}

// countGen records one node expanded during split generation (assignment
// pinning prefixes and frontier deepening — the part of the tree above the
// subtree tasks). Every nodeEventBatch nodes it settles the governor meter
// and polls the context. Returns false when the search must stop.
func (s *searcher) countGen() bool {
	s.nodes++
	s.remaining--
	s.genUnsettled++
	if s.genUnsettled >= nodeEventBatch {
		s.settleGen()
		if o := s.gov.Interrupted(); o.Stopped() {
			s.stop = o
			s.remaining = 0
		}
	}
	return s.remaining > 0
}

func (s *searcher) settleGen() {
	s.gov.Add(budget.Nodes, s.genUnsettled)
	s.genUnsettled = 0
}

const unset = semigroup.Elem(-1)

// tableState is one node of the split frontier: a symbol assignment, a
// partially filled table, and the index of the first undecided free cell.
// The frontier states become the independent subtree tasks.
type tableState struct {
	assign map[words.Symbol]semigroup.Elem
	cells  []int
	mul    []semigroup.Elem
	ci     int
	// maxEl is the largest designated element so far — 0, 1, the
	// assignment images, and every coordinate or value of a decided free
	// cell — the least-number heuristic's bound.
	maxEl int
	// table is set by a winning task's leaf verification.
	table *semigroup.Table
}

// searchOrder looks for a model of exactly order n. Returns the witness
// interpretation over the searcher's (normalized) presentation, or nil.
//
// The order's backtracking tree is searched in waves: symbol assignments
// are enumerated in canonical order, each consistent pinned table becomes
// a frontier root, and once taskTarget roots accumulate (or the
// enumeration ends) the wave is deepened and explored in parallel. Waves
// keep memory bounded on presentations with many symbols while preserving
// the serial visit order across wave boundaries.
func (s *searcher) searchOrder(n int) (*semigroup.Interpretation, error) {
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

	var roots []*tableState
	var witness *tableState

	// enumAssign walks free-symbol assignments; under PruneSymmetry the
	// image of each next symbol is capped one above the largest image so
	// far (first-occurrence order — any assignment is a relabeling of a
	// canonical one by a permutation fixing 0 and 1). Returns false to
	// abort the enumeration (witness found or budget stop).
	var enumAssign func(i, maxImg int) bool
	enumAssign = func(i, maxImg int) bool {
		if s.remaining <= 0 {
			return false
		}
		if i == len(free) {
			// Every completed assignment is a generation node, whether or
			// not its pins survive: on presentations with many symbols
			// almost all assignments die right here, and without charging
			// them the node budget would never be consulted — the
			// enumeration is exponential in the alphabet size.
			if !s.countGen() {
				return false
			}
			if st := s.pinTable(n, assign); st != nil {
				roots = append(roots, st)
				if len(roots) >= taskTarget {
					return s.runWave(n, &roots, &witness)
				}
			}
			return true
		}
		hi := n - 1
		if s.opt.Prune == psearch.PruneSymmetry && maxImg+1 < hi {
			hi = maxImg + 1
		}
		for e := 0; e <= hi; e++ {
			assign[free[i]] = semigroup.Elem(e)
			nm := maxImg
			if e > nm {
				nm = e
			}
			if !enumAssign(i+1, nm) {
				return false
			}
		}
		delete(assign, free[i])
		return true
	}
	if enumAssign(0, 1) && len(roots) > 0 {
		s.runWave(n, &roots, &witness)
	}
	s.flushNodes(n)
	if witness == nil {
		return nil, nil
	}
	cp := make(map[words.Symbol]semigroup.Elem, len(witness.assign))
	for k, v := range witness.assign {
		cp[k] = v
	}
	return semigroup.NewInterpretation(witness.table, a, cp)
}

// pinTable builds the pinned table for one assignment: zero row and
// column, plus the cells forced by (2,1) equations. Returns nil when the
// pins contradict each other or the cancellation conditions.
func (s *searcher) pinTable(n int, assign map[words.Symbol]semigroup.Elem) *tableState {
	mul := make([]semigroup.Elem, n*n)
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
			return nil // contradictory pinning under this assignment
		}
		// Cancellation conditions on pinned cells.
		if v == x && x != 0 {
			return nil
		}
		if v == y && y != 0 {
			return nil
		}
		set(x, y, v)
	}
	if !injectiveOffZero(mul, n) {
		return nil
	}

	var cells []int
	for i := range mul {
		if mul[i] == unset {
			cells = append(cells, i)
		}
	}
	// Assignment images (and the pinned cells, whose coordinates and
	// values are assignment images) are designated; 1 is always present.
	maxEl := 1
	for _, v := range assign {
		if int(v) > maxEl {
			maxEl = int(v)
		}
	}
	cp := make(map[words.Symbol]semigroup.Elem, len(assign))
	for k, v := range assign {
		cp[k] = v
	}
	return &tableState{assign: cp, cells: cells, mul: mul, maxEl: maxEl}
}

// branch enumerates the consistent values for free cell ci of state st in
// ascending order — the one place the child-generation rule (condition
// (ii), least-number cap, local consistency) is written, so the split
// frontier and the task walks prune identically. visit receives the value
// and the updated designated-element bound; returning false stops the
// enumeration. st.mul is restored before branch returns.
func (s *searcher) branch(st *tableState, n, ci, maxEl int, visit func(v semigroup.Elem, maxEl int) bool) bool {
	idx := st.cells[ci]
	x, y := idx/n, idx%n
	hi := n - 1
	if s.opt.Prune == psearch.PruneSymmetry {
		m := maxEl
		if x > m {
			m = x
		}
		if y > m {
			m = y
		}
		// Least-number heuristic: a value above every designated element
		// +1 is a relabeling of the +1 case by a transposition fixing the
		// designated set.
		if m+1 < hi {
			hi = m + 1
		}
	}
	for v := 0; v <= hi; v++ {
		val := semigroup.Elem(v)
		if int(val) == x && x != 0 {
			continue // condition (ii): x·y = x
		}
		if int(val) == y && y != 0 {
			continue // condition (ii): x·y = y
		}
		st.mul[idx] = val
		if cellConsistent(st.mul, n, semigroup.Elem(x), semigroup.Elem(y)) {
			nm := maxEl
			if x > nm {
				nm = x
			}
			if y > nm {
				nm = y
			}
			if v > nm {
				nm = v
			}
			if !visit(val, nm) {
				st.mul[idx] = unset
				return false
			}
		}
		st.mul[idx] = unset
	}
	return true
}

// runWave deepens the accumulated frontier roots into subtree tasks and
// explores them through psearch. On return *roots is cleared; *witness is
// set when a task verified a model. Returns false to stop the assignment
// enumeration (witness found or budget stop).
func (s *searcher) runWave(n int, roots *[]*tableState, witness **tableState) bool {
	frontier := *roots
	*roots = nil
	depth := 0
	for s.remaining > 0 {
		if s.opt.SplitDepth > 0 {
			if depth >= s.opt.SplitDepth {
				break
			}
		} else if len(frontier) >= taskTarget {
			break
		}
		expandable := false
		next := make([]*tableState, 0, len(frontier))
		for _, st := range frontier {
			if st.ci == len(st.cells) {
				next = append(next, st)
				continue
			}
			expandable = true
			if !s.countGen() {
				return false
			}
			s.branch(st, n, st.ci, st.maxEl, func(v semigroup.Elem, maxEl int) bool {
				child := &tableState{assign: st.assign, cells: st.cells,
					mul: append([]semigroup.Elem(nil), st.mul...), ci: st.ci + 1, maxEl: maxEl}
				next = append(next, child)
				return true
			})
		}
		if !expandable {
			break
		}
		frontier = next
		depth++
	}
	if s.remaining <= 0 {
		return false
	}
	if len(frontier) == 0 {
		// The whole subtree died during frontier generation: there is
		// nothing to dispatch, so no split/steal events — but the
		// generation nodes were counted and must reach the stream.
		s.flushNodes(n)
		return true
	}

	allowance := 0
	if s.limited {
		allowance = s.remaining
	}
	rep := psearch.Explore(len(frontier), psearch.Options{
		Workers: s.opt.Workers, Governor: s.gov, Allowance: allowance,
	}, func(t int, ctx *psearch.Ctx) bool {
		return s.runTask(frontier[t], n, ctx)
	})
	s.nodes += rep.Committed
	s.spec += rep.Speculative
	s.remaining -= rep.Committed + rep.Speculative

	if s.sink != nil {
		s.sink.Event(obs.Event{Type: obs.EvSearchSplit, Src: "search",
			Order: n, N: len(frontier), Depth: depth})
		upto := len(frontier) - 1
		if rep.Winner >= 0 {
			upto = rep.Winner
		}
		for t := 0; t <= upto; t++ {
			s.sink.Event(obs.Event{Type: obs.EvSearchSteal, Src: "search",
				Order: n, Task: t, Worker: rep.Tasks[t].Worker, N: rep.Tasks[t].Nodes})
		}
		s.flushNodes(n)
	}

	if rep.Winner >= 0 {
		*witness = frontier[rep.Winner]
		return false
	}
	if rep.Stop.Stopped() {
		s.stop = rep.Stop
		s.remaining = 0
		return false
	}
	return true
}

// flushNodes emits the committed nodes not yet covered by a search_node
// event (one aggregate per wave, plus the order's remainder).
func (s *searcher) flushNodes(order int) {
	if s.sink != nil && s.nodes > s.lastEmitted {
		s.sink.Event(obs.Event{Type: obs.EvSearchNode, Src: "search", Order: order, N: s.nodes - s.lastEmitted})
		s.lastEmitted = s.nodes
	}
}

// runTask explores one subtree task: depth-first over the remaining free
// cells, reporting every node to ctx. Returns true when a verified model
// was found (stored in st.table).
func (s *searcher) runTask(st *tableState, n int, ctx *psearch.Ctx) bool {
	var dfs func(ci, maxEl int) bool
	dfs = func(ci, maxEl int) bool {
		if !ctx.Node() {
			return false
		}
		if ci == len(st.cells) {
			if tb := s.verifyLeaf(st.mul, n, st.assign); tb != nil {
				st.table = tb
				return true
			}
			return false
		}
		s.branch(st, n, ci, maxEl, func(_ semigroup.Elem, nm int) bool {
			if dfs(ci+1, nm) {
				return false // witness found: stop branching
			}
			return !ctx.Halted()
		})
		return st.table != nil
	}
	return dfs(st.ci, st.maxEl)
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

// verifyLeaf runs the full, authoritative checks on a complete table. It
// only reads s.pres, so concurrent tasks may call it safely.
func (s *searcher) verifyLeaf(mul []semigroup.Elem, n int, assign map[words.Symbol]semigroup.Elem) *semigroup.Table {
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
	// A0 != 0 holds by construction (A0 -> 1, zero -> 0).
	return tb
}
