package search

import (
	"bytes"
	"context"
	"testing"

	"templatedep/internal/budget"
	"templatedep/internal/obs"
	"templatedep/internal/psearch"
	"templatedep/internal/semigroup"
	"templatedep/internal/words"
)

func TestFindCounterModelPower(t *testing.T) {
	// {A0·A0 = B}: the null semigroup of order 2 (A0 -> x, B -> 0, x² = 0)
	// is already a counterexample; the search must find order 2.
	res, err := FindCounterModel(words.PowerPresentation(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Interpretation == nil {
		t.Fatalf("outcome %v after %d nodes", res.Status(), res.NodesVisited)
	}
	if got := res.Interpretation.Table.Size(); got != 2 {
		t.Errorf("model order %d, want minimal 2", got)
	}
	if err := res.Interpretation.IsModelOfMainLemmaFailure(res.Presentation); err != nil {
		t.Error(err)
	}
}

func TestFindCounterModelNilpotentSafe(t *testing.T) {
	// B1 denotes A0², B2 denotes A0³; models where everything beyond A0
	// collapses to zero exist at order 2 (A0 -> x, B1, B2 -> 0).
	res, err := FindCounterModel(words.NilpotentSafePresentation(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Interpretation == nil {
		t.Fatalf("outcome %v", res.Status())
	}
	if err := res.Interpretation.IsModelOfMainLemmaFailure(res.Presentation); err != nil {
		t.Error(err)
	}
}

func TestFindCounterModelDerivableHasNone(t *testing.T) {
	// TwoStep: A0 = 0 is derivable, so NO model of any size can falsify it.
	res, err := FindCounterModel(words.TwoStepPresentation(), Options{Orders: budget.Range{Lo: 2, Hi: 3}, Governor: budget.New(nil, budget.Limits{Nodes: 2_000_000})})
	if err != nil {
		t.Fatal(err)
	}
	if res.Interpretation != nil {
		t.Fatalf("found impossible counterexample:\n%s", res.Interpretation.Table.String())
	}
}

func TestFindCounterModelIdempotentGap(t *testing.T) {
	// {A0·A0 = A0}: not derivable, but condition (ii) excludes every finite
	// cancellation counterexample without identity. The search must exhaust
	// its bounds without a model.
	res, err := FindCounterModel(words.IdempotentGapPresentation(), Options{Orders: budget.Range{Lo: 2, Hi: 4}, Governor: budget.New(nil, budget.Limits{Nodes: 4_000_000})})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Status(); got != "no-model-within-bounds" {
		t.Fatalf("outcome %v, want no-model-within-bounds", got)
	}
}

func TestFindCounterModelChain(t *testing.T) {
	// Chain presentations are derivable; no counterexample may be found.
	res, err := FindCounterModel(words.ChainPresentation(2), Options{Orders: budget.Range{Lo: 2, Hi: 3}, Governor: budget.New(nil, budget.Limits{Nodes: 3_000_000})})
	if err != nil {
		t.Fatal(err)
	}
	if res.Interpretation != nil {
		t.Fatal("found impossible counterexample for a derivable instance")
	}
}

func TestFindCounterModelBudget(t *testing.T) {
	// An equation-free alphabet at order 3 leaves four free cells; a budget
	// of 3 nodes cannot reach a leaf, so the search must report exhaustion.
	a := words.MustAlphabet([]string{"A0", "X", "0"}, "A0", "0")
	p, err := words.NewPresentation(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := FindCounterModel(p, Options{Orders: budget.Range{Lo: 3, Hi: 3}, Governor: budget.New(nil, budget.Limits{Nodes: 3})})
	if err != nil {
		t.Fatal(err)
	}
	if res.Budget != budget.Exhausted(budget.Nodes) {
		t.Fatalf("outcome %v (nodes %d), want exhausted:nodes", res.Status(), res.NodesVisited)
	}
}

func TestFindCounterModelNormalizesLongEquations(t *testing.T) {
	// A presentation with a length-3 equation must be normalized internally
	// and the witness mapped back to the original alphabet.
	a := words.MustAlphabet([]string{"A0", "C", "0"}, "A0", "0")
	p, err := words.NewPresentation(a, []words.Equation{
		words.Eq(words.MustParseWord(a, "A0 A0 A0"), words.MustParseWord(a, "C")),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := FindCounterModel(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Interpretation == nil {
		t.Fatalf("outcome %v", res.Status())
	}
	// The verified witness must be over the ORIGINAL alphabet.
	for _, s := range a.Symbols() {
		if _, ok := res.Interpretation.Assign[s]; !ok {
			t.Errorf("symbol %s unassigned in mapped-back witness", a.Name(s))
		}
	}
	if err := res.Interpretation.IsModelOfMainLemmaFailure(p.WithZeroEquations()); err != nil {
		t.Error(err)
	}
}

func TestQuotientFastPath(t *testing.T) {
	opt := Options{}
	opt.QuotientClasses = 3
	res, err := FindCounterModel(words.PowerPresentation(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Interpretation == nil {
		t.Fatalf("outcome %v", res.Status())
	}
	if res.NodesVisited != 0 {
		t.Errorf("quotient path should cost no search nodes, used %d", res.NodesVisited)
	}
	if err := res.Interpretation.IsModelOfMainLemmaFailure(res.Presentation); err != nil {
		t.Error(err)
	}
	// The fast path must not produce false positives on derivable input:
	// the table search still runs (and finds nothing).
	opt2 := Options{Orders: budget.Range{Lo: 2, Hi: 3}, Governor: budget.New(nil, budget.Limits{Nodes: 2_000_000}), QuotientClasses: 3}
	res2, err := FindCounterModel(words.TwoStepPresentation(), opt2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Interpretation != nil {
		t.Fatal("impossible witness for a derivable presentation")
	}
}

func TestFoundModelsHaveCancellation(t *testing.T) {
	for _, p := range []*words.Presentation{
		words.PowerPresentation(),
		words.NilpotentSafePresentation(1),
	} {
		res, err := FindCounterModel(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Interpretation == nil {
			t.Fatalf("outcome %v", res.Status())
		}
		if err := semigroup.CheckCancellation(res.Interpretation.Table); err != nil {
			t.Error(err)
		}
		if _, hasID := res.Interpretation.Table.Identity(); hasID {
			t.Error("model has an identity")
		}
	}
}

// Symmetry pruning must change only the node count, never the verdict.
func TestPruneAblationSoundness(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    *words.Presentation
		hi   int
		want string
	}{
		{"tower2", words.PowerTowerPresentation(2), 5, "model-found"},
		{"power", words.PowerPresentation(), 4, "model-found"},
		{"gap", words.IdempotentGapPresentation(), 5, "no-model-within-bounds"},
	} {
		var nodes [2]int
		for i, prune := range []psearch.Prune{psearch.PruneSymmetry, psearch.PruneNone} {
			res, err := FindCounterModel(tc.p, Options{
				Orders:   budget.Range{Lo: 2, Hi: tc.hi},
				Prune:    prune,
				Governor: budget.New(nil, budget.Limits{Nodes: 1_000_000}),
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, prune, err)
			}
			if got := res.Status(); got != tc.want {
				t.Errorf("%s/%s: verdict %s, want %s", tc.name, prune, got, tc.want)
			}
			nodes[i] = res.NodesVisited
		}
		if nodes[0] > nodes[1] {
			t.Errorf("%s: symmetry pruning visited MORE nodes (%d) than the exhaustive run (%d)",
				tc.name, nodes[0], nodes[1])
		}
	}
}

// injectiveOffZero edge cases: the zero-length table and the
// all-zero row are both injective-off-zero — zero entries are exempt from
// condition (i) — while a repeated nonzero entry in a row or column is
// not. Unset cells never count.
func TestInjectiveOffZeroEdgeCases(t *testing.T) {
	u := unset
	for _, tc := range []struct {
		name string
		n    int
		mul  []semigroup.Elem
		want bool
	}{
		{"empty table", 0, nil, true},
		{"single zero cell", 1, []semigroup.Elem{0}, true},
		{"all-zero row", 2, []semigroup.Elem{0, 0, 0, 1}, true},
		{"all unset", 2, []semigroup.Elem{u, u, u, u}, true},
		{"repeated nonzero in row", 2, []semigroup.Elem{1, 1, u, u}, false},
		{"repeated nonzero in column", 2, []semigroup.Elem{1, u, 1, u}, false},
		{"repeated zero in column ok", 2, []semigroup.Elem{0, 1, 0, u}, true},
		{"unset does not collide", 2, []semigroup.Elem{u, 1, u, u}, true},
	} {
		if got := injectiveOffZero(tc.mul, tc.n); got != tc.want {
			t.Errorf("%s: injectiveOffZero = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// trace runs FindCounterModel with a JSONL sink and replays the stream.
func trace(t *testing.T, p *words.Presentation, opt Options) (Result, obs.Totals) {
	t.Helper()
	var buf bytes.Buffer
	opt.Sink = obs.NewJSONLSink(&buf)
	res, err := FindCounterModel(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	totals, err := obs.Replay(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return res, totals
}

// The trace replays to the result: its search_node events sum to
// NodesVisited and its verdict is the result's status, on a found witness,
// a covered window that spans many event batches, and a capped run, which
// stops at the cap exactly.
func TestTraceReplaysNodes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		p     *words.Presentation
		hi    int
		nodes int
		want  string
	}{
		{"tower2", words.PowerTowerPresentation(2), 5, 1_000_000, "model-found"},
		{"chain4", words.ChainPresentation(4), 6, 1_000_000, "no-model-within-bounds"},
		{"chain4-capped", words.ChainPresentation(4), 6, 10_000, "exhausted:nodes"},
	} {
		res, totals := trace(t, tc.p, Options{
			Orders:   budget.Range{Lo: 2, Hi: tc.hi},
			Governor: budget.New(nil, budget.Limits{Nodes: tc.nodes}),
		})
		if got := res.Status(); got != tc.want {
			t.Errorf("%s: status %s, want %s", tc.name, got, tc.want)
		}
		if res.Budget.Stopped() && res.NodesVisited != tc.nodes {
			t.Errorf("%s: stopped after %d nodes, want exactly the cap %d", tc.name, res.NodesVisited, tc.nodes)
		}
		if totals.SearchNodes != res.NodesVisited {
			t.Errorf("%s: trace replays %d nodes, result says %d", tc.name, totals.SearchNodes, res.NodesVisited)
		}
		if v := totals.Verdicts["search"]; v != tc.want {
			t.Errorf("%s: trace verdict %q, want %q", tc.name, v, tc.want)
		}
	}
}

// A found witness is charged only the prefix of the tree before it:
// nilpotent:4 has one at the first assignment of order 2, whose pinned
// table has no free cell.
func TestFoundWitnessChargesItsPrefix(t *testing.T) {
	res, err := FindCounterModel(words.NilpotentSafePresentation(4), Options{Orders: budget.Range{Lo: 2, Hi: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Interpretation == nil || res.NodesVisited > 2 {
		t.Errorf("%s after %d nodes, want a witness within 2", res.Status(), res.NodesVisited)
	}
}

// A search under an already-cancelled governor refuses to start and says
// so in its trace.
func TestCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, totals := trace(t, words.PowerTowerPresentation(2), Options{Governor: budget.New(ctx, budget.Limits{})})
	if res.Budget.Code != budget.CodeCancelled || res.Interpretation != nil || res.NodesVisited != 0 {
		t.Errorf("got %s after %d nodes, want cancelled after none", res.Status(), res.NodesVisited)
	}
	if totals.Stops["search"] != "cancelled" || totals.Verdicts["search"] != "cancelled" {
		t.Errorf("trace stop %q verdict %q, want cancelled", totals.Stops["search"], totals.Verdicts["search"])
	}
}

// The nilpotent-quotient shortcut runs after the stopped-governor check
// and ends through the same trace as the table search.
func TestQuotientShortcutHonoursGovernor(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		want string
	}{
		{"cancelled", ctx, "cancelled"},
		{"live", context.Background(), "model-found"},
	} {
		res, totals := trace(t, words.NilpotentSafePresentation(4), Options{
			QuotientClasses: 3,
			Governor:        budget.New(tc.ctx, budget.Limits{}),
		})
		if got := res.Status(); got != tc.want {
			t.Errorf("%s: status %s, want %s", tc.name, got, tc.want)
		}
		if v := totals.Verdicts["search"]; v != tc.want {
			t.Errorf("%s: trace verdict %q, want %q", tc.name, v, tc.want)
		}
	}
}
