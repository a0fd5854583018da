package finitemodel

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"templatedep/internal/budget"
	"templatedep/internal/chase"
	"templatedep/internal/corpus"
	"templatedep/internal/obs"
	"templatedep/internal/psearch"
	"templatedep/internal/reduction"
	"templatedep/internal/relation"
	"templatedep/internal/td"
	"templatedep/internal/words"
)

func TestFindCounterexampleBasic(t *testing.T) {
	// D empty, D0 = fig1: any instance violating fig1 works; the smallest
	// has 2 tuples (a shared supplier, two styles/sizes, nobody covering
	// the cross).
	_, fig1 := td.GarmentExample()
	res, err := FindCounterexample(nil, fig1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instance == nil {
		t.Fatalf("outcome %v after %d nodes", res.Status(), res.NodesVisited)
	}
	if res.Instance.Len() != 2 {
		t.Errorf("counterexample size %d, want 2", res.Instance.Len())
	}
	if ok, _ := fig1.Satisfies(res.Instance); ok {
		t.Error("returned instance satisfies D0")
	}
}

func TestFindCounterexampleRespectsD(t *testing.T) {
	s := relation.MustSchema("A", "B", "C")
	join := td.MustParse(s, "R(a, b, c) & R(a, b', c') -> R(a, b, c')", "join")
	goal := td.MustParse(s, "R(a, b, c) & R(a', b', c') -> R(a, b, c')", "goal")
	res, err := FindCounterexample([]*td.TD{join}, goal, Options{Sizes: budget.Range{Lo: 1, Hi: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instance == nil {
		t.Fatalf("outcome %v", res.Status())
	}
	if ok, _ := join.Satisfies(res.Instance); !ok {
		t.Error("counterexample violates a member of D")
	}
	if ok, _ := goal.Satisfies(res.Instance); ok {
		t.Error("counterexample satisfies D0")
	}
}

func TestNoCounterexampleForImpliedGoal(t *testing.T) {
	s := relation.MustSchema("A", "B", "C")
	join := td.MustParse(s, "R(a, b, c) & R(a, b', c') -> R(a, b, c')", "join")
	goal := td.MustParse(s, "R(a, b, c) & R(a, b', c') & R(a, b'', c'') -> R(a, b, c'')", "goal")
	res, err := FindCounterexample([]*td.TD{join}, goal, Options{Sizes: budget.Range{Lo: 1, Hi: 3}, Governor: budget.New(nil, budget.Limits{Nodes: 5_000_000})})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instance != nil {
		t.Fatalf("found impossible counterexample:\n%s", res.Instance.String())
	}
}

func TestNoCounterexampleForTrivialGoal(t *testing.T) {
	s := relation.MustSchema("A", "B")
	triv := td.MustParse(s, "R(a, b) -> R(a, b)", "")
	res, err := FindCounterexample(nil, triv, Options{Sizes: budget.Range{Lo: 1, Hi: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Status(); got != "exhausted-within-bounds" {
		t.Errorf("outcome %v", got)
	}
}

func TestBudget(t *testing.T) {
	_, fig1 := td.GarmentExample()
	res, err := FindCounterexample(nil, fig1, Options{Sizes: budget.Range{Lo: 1, Hi: 4}, Governor: budget.New(nil, budget.Limits{Nodes: 3})})
	if err != nil {
		t.Fatal(err)
	}
	if res.Budget != budget.Exhausted(budget.Nodes) {
		t.Errorf("outcome %v", res.Status())
	}
}

func TestSchemaMismatch(t *testing.T) {
	s := relation.MustSchema("A", "B")
	other := relation.MustSchema("X", "Y", "Z")
	d := td.MustParse(s, "R(a, b) -> R(a, b')", "")
	g := td.MustParse(other, "R(x, y, z) -> R(x, y, z')", "")
	if _, err := FindCounterexample([]*td.TD{d}, g, Options{}); err == nil {
		t.Error("schema mismatch accepted")
	}
}

// Property: on random full-TD instances over a 2-column schema, the
// enumerator agrees with the chase decision procedure — whenever Decide
// says "not implied" AND the chase's own counterexample is small, the
// enumerator finds a counterexample too; whenever Decide says "implied",
// the enumerator must find nothing at any size.
func TestAgreesWithDecideProperty(t *testing.T) {
	s := relation.MustSchema("A", "B")
	mk := func(rng *rand.Rand) *td.TD {
		// Random full TD with 2 antecedents over small variable pools; the
		// conclusion reuses antecedent variables only.
		av := []int{rng.Intn(2), rng.Intn(2)}
		bv := []int{rng.Intn(2), rng.Intn(2)}
		text := fmt.Sprintf("R(a%d, b%d) & R(a%d, b%d) -> R(a%d, b%d)",
			av[0], bv[0], av[1], bv[1], av[rng.Intn(2)], bv[rng.Intn(2)])
		return td.MustParse(s, text, "rand")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dep := mk(rng)
		goal := mk(rng)
		decided, err := chase.Decide([]*td.TD{dep}, goal, 0)
		if err != nil {
			return true // bound refusal etc.; vacuous
		}
		// Chase counterexample size bounds the enumeration needed.
		cres, err := chase.Implies([]*td.TD{dep}, goal, chase.Options{})
		if err != nil {
			t.Log(err)
			return false
		}
		res, err := FindCounterexample([]*td.TD{dep}, goal, Options{Sizes: budget.Range{Lo: 1, Hi: 4}, Governor: budget.New(nil, budget.Limits{Nodes: 3_000_000})})
		if err != nil {
			t.Log(err)
			return false
		}
		if decided && res.Instance != nil {
			t.Logf("seed %d: implied but counterexample found:\n%s", seed, res.Instance.String())
			return false
		}
		if !decided && cres.Instance.Len() <= 4 && res.Instance == nil {
			t.Logf("seed %d: not implied with %d-tuple chase witness, enumerator found nothing",
				seed, cres.Instance.Len())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(41))}); err != nil {
		t.Error(err)
	}
}

func TestAgreesWithChaseOnSmallCases(t *testing.T) {
	// For the full-TD case the chase decides; the enumerator must agree on
	// existence of counterexamples within its bounds.
	s := relation.MustSchema("A", "B")
	full := td.MustParse(s, "R(a, b) & R(a', b) -> R(a, b)", "") // trivial
	goal := td.MustParse(s, "R(a, b) & R(a', b') -> R(a, b')", "cross")
	res, err := FindCounterexample([]*td.TD{full}, goal, Options{Sizes: budget.Range{Lo: 1, Hi: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instance == nil {
		t.Fatalf("outcome %v; {(0,0),(1,1)} should be a counterexample", res.Status())
	}
}

// Disabling symmetry pruning must change only the node count (the
// exhaustive run revisits permuted instances), never the verdict.
func TestPruneAblationSoundness(t *testing.T) {
	in, err := reduction.Build(words.IdempotentGapPresentation())
	if err != nil {
		t.Fatal(err)
	}
	var nodes [2]int
	for i, prune := range []psearch.Prune{psearch.PruneSymmetry, psearch.PruneNone} {
		res, err := FindCounterexample(in.D, in.D0, Options{
			Sizes:    budget.Range{Lo: 1, Hi: 2},
			Prune:    prune,
			Governor: budget.New(nil, budget.Limits{Nodes: 1_000_000}),
		})
		if err != nil {
			t.Fatalf("%s: %v", prune, err)
		}
		if res.Instance == nil {
			t.Fatalf("%s: no counterexample (%s)", prune, res.Status())
		}
		nodes[i] = res.NodesVisited
	}
	if nodes[0] >= nodes[1] {
		t.Errorf("symmetry pruning visited %d nodes, exhaustive run %d — pruning should strictly reduce the gap tree",
			nodes[0], nodes[1])
	}
	// The non-existence side: an implied goal yields no counterexample in
	// either mode.
	s := relation.MustSchema("A", "B", "C")
	join := td.MustParse(s, "R(a, b, c) & R(a, b', c') -> R(a, b, c')", "join")
	goal := td.MustParse(s, "R(a, b, c) & R(a, b', c') & R(a, b'', c'') -> R(a, b, c'')", "goal")
	for _, prune := range []psearch.Prune{psearch.PruneSymmetry, psearch.PruneNone} {
		res, err := FindCounterexample([]*td.TD{join}, goal, Options{
			Sizes:    budget.Range{Lo: 1, Hi: 3},
			Prune:    prune,
			Governor: budget.New(nil, budget.Limits{Nodes: 10_000_000}),
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Instance != nil {
			t.Errorf("%s: found impossible counterexample", prune)
		}
	}
}

// lexLess edge cases: zero-length tuples, equal tuples, and
// mismatched lengths must keep the order strict and total.
func TestLexLessEdgeCases(t *testing.T) {
	for _, tc := range []struct {
		name string
		a, b relation.Tuple
		want bool
	}{
		{"both empty", relation.Tuple{}, relation.Tuple{}, false},
		{"nil vs nil", nil, nil, false},
		{"empty vs nonempty", relation.Tuple{}, relation.Tuple{0}, true},
		{"nonempty vs empty", relation.Tuple{0}, relation.Tuple{}, false},
		{"equal", relation.Tuple{1, 2}, relation.Tuple{1, 2}, false},
		{"less in first", relation.Tuple{0, 9}, relation.Tuple{1, 0}, true},
		{"less in last", relation.Tuple{1, 1}, relation.Tuple{1, 2}, true},
		{"greater", relation.Tuple{2, 0}, relation.Tuple{1, 9}, false},
		{"prefix shorter first", relation.Tuple{1}, relation.Tuple{1, 0}, true},
		{"prefix longer second", relation.Tuple{1, 0}, relation.Tuple{1}, false},
		{"all zero", relation.Tuple{0, 0, 0}, relation.Tuple{0, 0, 0}, false},
	} {
		if got := lexLess(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: lexLess(%v, %v) = %v, want %v", tc.name, tc.a, tc.b, got, tc.want)
		}
		// Strictness: a < b and b < a never both hold.
		if lexLess(tc.a, tc.b) && lexLess(tc.b, tc.a) {
			t.Errorf("%s: order not antisymmetric", tc.name)
		}
	}
}

// The trace replays to the result: its search_node events sum to
// NodesVisited and its verdict is the result's status.
func TestTraceReplaysNodes(t *testing.T) {
	in, err := reduction.Build(words.IdempotentGapPresentation())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res, err := FindCounterexample(in.D, in.D0, Options{
		Sizes:    budget.Range{Lo: 1, Hi: 2},
		Governor: budget.New(nil, budget.Limits{Nodes: 1_000_000}),
		Sink:     obs.NewJSONLSink(&buf),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instance == nil {
		t.Fatalf("no counterexample (%s)", res.Status())
	}
	totals, err := obs.Replay(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if totals.SearchNodes != res.NodesVisited {
		t.Errorf("trace replays %d nodes, result says %d", totals.SearchNodes, res.NodesVisited)
	}
	if v := totals.Verdicts["finitemodel"]; v != "found" {
		t.Errorf("trace verdict %q, want found", v)
	}
}

// An enumeration under an already-cancelled governor refuses to start and
// says so in its trace.
func TestCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, fig1 := td.GarmentExample()
	var buf bytes.Buffer
	res, err := FindCounterexample(nil, fig1, Options{
		Governor: budget.New(ctx, budget.Limits{}),
		Sink:     obs.NewJSONLSink(&buf),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Budget.Code != budget.CodeCancelled || res.Instance != nil || res.NodesVisited != 0 {
		t.Errorf("got %s after %d nodes, want cancelled after none", res.Status(), res.NodesVisited)
	}
	totals, err := obs.Replay(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if totals.Stops["finitemodel"] != "cancelled" || totals.Verdicts["finitemodel"] != "cancelled" {
		t.Errorf("trace stop %q verdict %q, want cancelled", totals.Stops["finitemodel"], totals.Verdicts["finitemodel"])
	}
}

// A capped run charges the governor its cap at most, and stops at it
// exactly: oracle/345 of the seed-1 corpus has a counterexample only
// 15,537 nodes in, far past a 2,048-node cap.
func TestCappedRunStopsAtItsCap(t *testing.T) {
	ins, err := corpus.Generate(corpus.Options{Seed: 1, Random: 400, Oracle: 400, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range ins {
		if in.ID != "oracle/345" {
			continue
		}
		g := budget.New(nil, budget.Limits{Nodes: 2048})
		res, err := FindCounterexample(in.Deps, in.Goal, Options{Governor: g})
		if err != nil {
			t.Fatal(err)
		}
		if res.Budget != budget.Exhausted(budget.Nodes) || res.NodesVisited != 2048 || g.Used(budget.Nodes) != 2048 {
			t.Errorf("%s after %d nodes (governor charged %d), want exhausted:nodes at exactly 2048",
				res.Status(), res.NodesVisited, g.Used(budget.Nodes))
		}
		return
	}
	t.Fatal("corpus has no oracle/345")
}
