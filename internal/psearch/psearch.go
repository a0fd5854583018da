// Package psearch holds what the two counter-model search engines share
// (DESIGN.md §8): internal/search over multiplication tables and
// internal/finitemodel over database instances. Both walk their decision
// tree depth-first on the calling goroutine, children in ascending order,
// so the first witness reached is the lexicographically least one; both
// count every node through a Meter, and both name their symmetry breaking
// with Prune.
package psearch

import (
	"fmt"
	"math"

	"templatedep/internal/budget"
	"templatedep/internal/obs"
)

// Prune selects the symmetry-breaking mode of an engine.
type Prune uint8

const (
	// PruneSymmetry is the production mode: canonical-ordering symmetry
	// breaking is applied (least-number value capping and canonical
	// assignment enumeration for tables, first-occurrence value order and
	// lex-least tuple insertion for instances).
	PruneSymmetry Prune = iota
	// PruneNone disables symmetry breaking — the exhaustive baseline kept
	// for ablation benchmarks and soundness tests.
	PruneNone
)

func (p Prune) String() string {
	if p == PruneNone {
		return "none"
	}
	return "symmetry"
}

// ParsePrune reads the CLI spelling of a prune mode.
func ParsePrune(s string) (Prune, error) {
	switch s {
	case "symmetry", "":
		return PruneSymmetry, nil
	case "none":
		return PruneNone, nil
	}
	return PruneSymmetry, fmt.Errorf("psearch: unknown prune mode %q (want symmetry or none)", s)
}

// Batch is the checkpoint interval: every Batch nodes the meter settles
// the governor's nodes meter, polls its context, and emits one search_node
// event, so the walk's inner loop stays free of governor traffic and
// cancellation latency is one batch.
const Batch = 4096

// Meter counts the nodes of one search run and closes its trace. The walk
// calls Node before it expands a node and unwinds as soon as Node returns
// false. The meter stops the walk at the governor's nodes cap exactly (the
// node past the cap is refused, not counted) or at the first checkpoint
// after the context ends.
type Meter struct {
	gov  *budget.Governor
	sink obs.Sink
	src  string
	// limit is the nodes cap (MaxInt when the meter is uncapped); next is
	// the node count of the next checkpoint, never past limit.
	limit, next int
	// nodes is the count so far; flushed is how many of them the governor
	// and the search_node events already cover.
	nodes, flushed int
	// order is the window coordinate (semigroup order or instance size)
	// search_node events carry.
	order int
	stop  budget.Outcome
}

// NewMeter meters a run under g, emitting to sink (nil disables emission)
// with Src src.
func NewMeter(g *budget.Governor, sink obs.Sink, src string) *Meter {
	m := &Meter{gov: g, sink: sink, src: src, limit: g.Limit(budget.Nodes)}
	if m.limit <= 0 {
		m.limit = math.MaxInt
	}
	m.next = min(Batch, m.limit)
	return m
}

// Node counts one node. A false return refuses the node: the walk must
// unwind, and Stop says why.
func (m *Meter) Node() bool {
	if m.nodes == m.next && !m.checkpoint() {
		return false
	}
	m.nodes++
	return true
}

func (m *Meter) checkpoint() bool {
	if m.stop.Stopped() {
		return false
	}
	m.flush()
	// The context takes precedence over the cap, as in budget.Charge.
	if o := m.gov.Interrupted(); o.Stopped() {
		m.stop = o
		return false
	}
	if m.nodes == m.limit {
		m.stop = budget.Exhausted(budget.Nodes)
		return false
	}
	m.next = min(m.nodes+Batch, m.limit)
	return true
}

// flush charges the governor the nodes counted since the last flush and
// emits them as one search_node event.
func (m *Meter) flush() {
	n := m.nodes - m.flushed
	if n == 0 {
		return
	}
	m.flushed = m.nodes
	m.gov.Add(budget.Nodes, n)
	if m.sink != nil {
		m.sink.Event(obs.Event{Type: obs.EvSearchNode, Src: m.src, Order: m.order, N: n})
	}
}

// Window starts the walk of one window coordinate (a semigroup order or an
// instance size), closing the previous one's search_node batch.
func (m *Meter) Window(order int) {
	m.flush()
	m.order = order
}

// Nodes is the number of nodes counted so far.
func (m *Meter) Nodes() int { return m.nodes }

// Stop reports how the meter stopped the walk; zero while it runs.
func (m *Meter) Stop() budget.Outcome { return m.stop }

// Finish closes the run: it settles and emits the last batch, then emits a
// budget_exhausted or cancelled event when stop is set, and the verdict.
func (m *Meter) Finish(verdict string, stop budget.Outcome) {
	m.flush()
	if m.sink == nil {
		return
	}
	if stop.Stopped() {
		typ := obs.EvBudgetExhausted
		if stop.Code != budget.CodeExhausted {
			typ = obs.EvCancelled
		}
		m.sink.Event(obs.Event{Type: typ, Src: m.src, Resource: stop.Reason()})
	}
	m.sink.Event(obs.Event{Type: obs.EvVerdict, Src: m.src, Verdict: verdict, N: m.nodes})
}
