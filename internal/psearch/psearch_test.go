package psearch

import (
	"context"
	"reflect"
	"testing"

	"templatedep/internal/budget"
	"templatedep/internal/obs"
)

// walk asks m for up to n nodes and returns how many it granted.
func walk(m *Meter, n int) int {
	for i := 0; i < n; i++ {
		if !m.Node() {
			return i
		}
	}
	return n
}

func TestBudgetExhaustionStopsExploration(t *testing.T) {
	for _, limit := range []int{1, 100, Batch, Batch + 904} {
		g := budget.New(nil, budget.Limits{Nodes: limit})
		m := NewMeter(g, nil, "search")
		if got := walk(m, 3*Batch); got != limit {
			t.Errorf("cap %d: granted %d nodes", limit, got)
		}
		if m.Node() {
			t.Errorf("cap %d: a stopped meter granted another node", limit)
		}
		if m.Stop() != budget.Exhausted(budget.Nodes) {
			t.Errorf("cap %d: stop %v, want exhausted:nodes", limit, m.Stop())
		}
		if m.Nodes() != limit || g.Used(budget.Nodes) != limit {
			t.Errorf("cap %d: meter counts %d, governor charged %d", limit, m.Nodes(), g.Used(budget.Nodes))
		}
	}
}

func TestCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := budget.New(ctx, budget.Limits{})
	m := NewMeter(g, nil, "search")
	// The context is polled at the first checkpoint, one batch in.
	if got := walk(m, 3*Batch); got != Batch {
		t.Errorf("granted %d nodes, want one batch (%d)", got, Batch)
	}
	if m.Stop().Code != budget.CodeCancelled {
		t.Errorf("stop %v, want cancelled", m.Stop())
	}
}

type recordSink struct{ events []obs.Event }

func (r *recordSink) Event(e obs.Event) { r.events = append(r.events, e) }

// The meter's trace: one search_node per batch and per window remainder,
// each carrying its window's order, then the stop and the verdict; the
// governor is charged every node.
func TestMeterTrace(t *testing.T) {
	g := budget.New(nil, budget.Limits{Nodes: 9000})
	rec := &recordSink{}
	m := NewMeter(g, rec, "finitemodel")
	m.Window(2)
	walk(m, 5000)
	m.Window(3)
	walk(m, 5000)
	m.Finish("exhausted:nodes", m.Stop())
	want := []obs.Event{
		{Type: obs.EvSearchNode, Src: "finitemodel", Order: 2, N: Batch},
		{Type: obs.EvSearchNode, Src: "finitemodel", Order: 2, N: 5000 - Batch},
		{Type: obs.EvSearchNode, Src: "finitemodel", Order: 3, N: 2*Batch - 5000},
		{Type: obs.EvSearchNode, Src: "finitemodel", Order: 3, N: 9000 - 2*Batch},
		{Type: obs.EvBudgetExhausted, Src: "finitemodel", Resource: "nodes"},
		{Type: obs.EvVerdict, Src: "finitemodel", Verdict: "exhausted:nodes", N: 9000},
	}
	if !reflect.DeepEqual(rec.events, want) {
		t.Errorf("events:\n got %+v\nwant %+v", rec.events, want)
	}
	if got := g.Used(budget.Nodes); got != 9000 {
		t.Errorf("governor charged %d nodes, want 9000", got)
	}
}

func TestPruneVocabulary(t *testing.T) {
	if PruneSymmetry.String() != "symmetry" || PruneNone.String() != "none" {
		t.Fatal("prune spellings changed")
	}
	for _, s := range []string{"symmetry", "none", ""} {
		if _, err := ParsePrune(s); err != nil {
			t.Errorf("ParsePrune(%q): %v", s, err)
		}
	}
	if _, err := ParsePrune("bogus"); err == nil {
		t.Error("ParsePrune accepted garbage")
	}
}
