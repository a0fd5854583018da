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
// can disable both restrictions for ablation. Like internal/search, the
// enumeration runs through internal/psearch: the decision tree is split at
// a prefix depth into independent subtree tasks explored on
// Options.Workers goroutines, with first-witness-wins semantics and a
// deterministic lex-least tie-break, so the counterexample returned is the
// same for every Workers value (see DESIGN.md §8).
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
	// and its context is polled every checkInterval nodes. Nil resolves to
	// DefaultLimits.
	Governor *budget.Governor
	// Sink receives search_split, search_steal, and search_node events
	// (Src "finitemodel", Order carrying the instance size) plus the final
	// verdict. Nil disables emission. See docs/OBSERVABILITY.md.
	Sink obs.Sink
	// Workers is the number of goroutines exploring subtree tasks; <= 1
	// enumerates serially. The counterexample and the node ledger are
	// identical for every value as long as the node budget is not
	// exhausted mid-run.
	Workers int
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

// checkInterval is how many search nodes pass between governor
// checkpoints: the same batch width as psearch.DefaultBatch, keeping the
// inner loop free of context polls.
const checkInterval = 4096

// taskTarget matches internal/search: how many subtree tasks an adaptive
// split aims for, independent of Workers so the node ledger is too.
const taskTarget = 64

// Result is the outcome of FindCounterexample.
type Result struct {
	// Instance is the counterexample database; nil when none was found.
	Instance *relation.Instance
	// NodesVisited counts committed enumeration nodes — the node set a
	// serial run explores, whatever Workers is.
	NodesVisited int
	// SpeculativeNodes counts nodes parallel workers explored beyond the
	// winning subtree; charged to the governor, excluded from
	// NodesVisited. Zero when Workers <= 1.
	SpeculativeNodes int
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
	for i, d := range deps {
		if !d.Schema().Equal(schema) {
			return Result{}, fmt.Errorf("finitemodel: dependency %d has a different schema", i)
		}
	}
	g := budget.Resolve(opt.Governor, DefaultLimits)
	s := &searcher{schema: schema, deps: deps, d0: d0, opt: opt, gov: g,
		sink: opt.Sink, limited: g.Limit(budget.Nodes) > 0, remaining: g.Limit(budget.Nodes)}
	if !s.limited {
		s.remaining = int(^uint(0) >> 1)
	}
	finish := func(r Result) Result {
		s.settleGen()
		r.SpeculativeNodes = s.spec
		if s.sink != nil {
			if r.Budget.Stopped() {
				typ := obs.EvBudgetExhausted
				if r.Budget.Code != budget.CodeExhausted {
					typ = obs.EvCancelled
				}
				s.sink.Event(obs.Event{Type: typ, Src: "finitemodel", Resource: r.Budget.Reason()})
			}
			s.sink.Event(obs.Event{Type: obs.EvVerdict, Src: "finitemodel", Verdict: r.Status(), N: s.nodes})
		}
		return r
	}
	// A procedure whose governor is already stopped must refuse to start:
	// without this, a run cancelled during an earlier stage could still
	// produce a fresh (if genuine) answer from the first node batch,
	// making the overall verdict depend on checkpoint timing.
	if o := g.Interrupted(); o.Stopped() {
		return finish(Result{Budget: o}), nil
	}
	for n := opt.Sizes.Lo; n <= opt.Sizes.Hi; n++ {
		inst, err := s.searchSize(n)
		if err != nil {
			return Result{}, err
		}
		if inst != nil {
			return finish(Result{Instance: inst, NodesVisited: s.nodes}), nil
		}
		if s.remaining <= 0 {
			out := s.stop
			if !out.Stopped() {
				out = budget.Exhausted(budget.Nodes)
			}
			return finish(Result{NodesVisited: s.nodes, Budget: out}), nil
		}
	}
	return finish(Result{NodesVisited: s.nodes}), nil
}

type searcher struct {
	schema *relation.Schema
	deps   []*td.TD
	d0     *td.TD
	opt    Options
	gov    *budget.Governor
	// limited reports whether the nodes meter has a cap; remaining is the
	// countdown mirroring it. A context stop zeroes it at the next
	// checkInterval boundary.
	limited   bool
	remaining int
	// nodes is the committed ledger; spec counts parallel overshoot;
	// genUnsettled is how many split-generation nodes have not yet been
	// reported to the governor (task nodes are settled by psearch).
	nodes        int
	spec         int
	genUnsettled int
	stop         budget.Outcome
	sink         obs.Sink
	lastEmitted  int
}

// countGen records one node expanded during split generation, settling the
// governor meter and polling the context every checkInterval nodes.
// Returns false when the search must stop.
func (s *searcher) countGen() bool {
	s.nodes++
	s.remaining--
	s.genUnsettled++
	if s.genUnsettled >= checkInterval {
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

// instState is one node of the decision tree: the committed tuples, the
// partially filled current tuple, and the per-column first-occurrence
// counters. A state with n committed tuples and col 0 is a leaf (the
// candidate instance is complete).
type instState struct {
	tuples []relation.Tuple
	tup    relation.Tuple
	col    int
	used   []int
	// inst is set by a winning task's leaf check.
	inst *relation.Instance
}

func (st *instState) clone() *instState {
	cp := &instState{col: st.col}
	cp.tuples = make([]relation.Tuple, len(st.tuples))
	for i, t := range st.tuples {
		cp.tuples[i] = t.Clone()
	}
	cp.tup = st.tup.Clone()
	cp.used = append([]int(nil), st.used...)
	return cp
}

// searchSize enumerates instances with exactly n tuples: the decision tree
// is deepened into a frontier of subtree tasks and explored through
// psearch (see DESIGN.md §8).
func (s *searcher) searchSize(n int) (*relation.Instance, error) {
	width := s.schema.Width()
	root := &instState{tup: make(relation.Tuple, width), used: make([]int, width)}
	frontier := []*instState{root}
	depth := 0
	for s.remaining > 0 && len(frontier) < taskTarget {
		expandable := false
		next := make([]*instState, 0, len(frontier))
		for _, st := range frontier {
			if len(st.tuples) == n {
				next = append(next, st)
				continue
			}
			expandable = true
			if !s.countGen() {
				s.flushNodes(n)
				return nil, nil
			}
			s.branch(st, n, func() bool {
				next = append(next, st.clone())
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
		s.flushNodes(n)
		return nil, nil
	}
	if len(frontier) == 0 {
		// The whole subtree died during frontier generation: there is
		// nothing to dispatch, so no split/steal events — but the
		// generation nodes were counted and must reach the stream.
		s.flushNodes(n)
		return nil, nil
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
		s.sink.Event(obs.Event{Type: obs.EvSearchSplit, Src: "finitemodel",
			Order: n, N: len(frontier), Depth: depth})
		upto := len(frontier) - 1
		if rep.Winner >= 0 {
			upto = rep.Winner
		}
		for t := 0; t <= upto; t++ {
			s.sink.Event(obs.Event{Type: obs.EvSearchSteal, Src: "finitemodel",
				Order: n, Task: t, Worker: rep.Tasks[t].Worker, N: rep.Tasks[t].Nodes})
		}
	}
	s.flushNodes(n)

	if rep.Winner >= 0 {
		return frontier[rep.Winner].inst, nil
	}
	if rep.Stop.Stopped() {
		s.stop = rep.Stop
		s.remaining = 0
	}
	return nil, nil
}

// flushNodes emits the committed nodes not yet covered by a search_node
// event.
func (s *searcher) flushNodes(size int) {
	if s.sink != nil && s.nodes > s.lastEmitted {
		s.sink.Event(obs.Event{Type: obs.EvSearchNode, Src: "finitemodel", Order: size, N: s.nodes - s.lastEmitted})
		s.lastEmitted = s.nodes
	}
}

// branch enumerates the children of non-leaf state st in canonical order —
// the one place the child-generation rule (value caps, lex-least tuple
// insertion) is written, so the split frontier and the task walks prune
// identically. visit sees st mutated into the child and may recurse or
// clone it; returning false stops the enumeration. st is restored before
// branch returns.
func (s *searcher) branch(st *instState, n int, visit func() bool) {
	width := s.schema.Width()
	if st.col == width {
		// Tuple complete. Under symmetry pruning only lex-increasing tuple
		// sequences are kept: any instance is a set, so some permutation of
		// its tuples is sorted, and that ordering is enumerated instead.
		if s.opt.Prune == psearch.PruneSymmetry {
			if k := len(st.tuples); k > 0 && !lexLess(st.tuples[k-1], st.tup) {
				return
			}
		}
		saved := st.tup
		st.tuples = append(st.tuples, st.tup.Clone())
		st.tup = make(relation.Tuple, width)
		st.col = 0
		visit()
		st.tuples = st.tuples[:len(st.tuples)-1]
		st.tup = saved
		st.col = width
		return
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
			return
		}
	}
}

// runTask explores one subtree task depth-first, reporting every node to
// ctx. Returns true when a counterexample was found (stored in st.inst).
func (s *searcher) runTask(st *instState, n int, ctx *psearch.Ctx) bool {
	var dfs func() bool
	dfs = func() bool {
		if !ctx.Node() {
			return false
		}
		if len(st.tuples) == n && st.col == 0 {
			if inst := s.checkLeaf(st.tuples, n); inst != nil {
				st.inst = inst
				return true
			}
			return false
		}
		s.branch(st, n, func() bool {
			if dfs() {
				return false // witness found: stop branching
			}
			return !ctx.Halted()
		})
		return st.inst != nil
	}
	return dfs()
}

// checkLeaf verifies one complete candidate: the tuples must form an
// instance of exactly n distinct tuples satisfying every member of D and
// violating D0. It only reads the searcher's dependencies (Satisfies is
// pure), so concurrent tasks may call it safely.
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
	for _, d := range s.deps {
		if ok, _ := d.Satisfies(inst); !ok {
			return nil
		}
	}
	if ok, _ := s.d0.Satisfies(inst); ok {
		return nil
	}
	return inst
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
