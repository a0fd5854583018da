package templatedep_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"templatedep/internal/budget"
	"templatedep/internal/chase"
	"templatedep/internal/corpus"
	"templatedep/internal/eid"
	"templatedep/internal/obs"
	"templatedep/internal/reduction"
	"templatedep/internal/relation"
	"templatedep/internal/td"
	"templatedep/internal/words"
)

// replayMatches folds a JSONL trace and checks it reproduces the chase's
// own Stats — the partial-trace contract: however a run was cut short, the
// trace must still replay to exactly the numbers the run reported.
func replayMatches(t *testing.T, buf *bytes.Buffer, res chase.Result) obs.Totals {
	t.Helper()
	tot, err := obs.Replay(buf)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if tot.Rounds != st.Rounds {
		t.Errorf("rounds: replay %d, stats %d", tot.Rounds, st.Rounds)
	}
	if tot.TriggersFired != st.TriggersFired {
		t.Errorf("fired: replay %d, stats %d", tot.TriggersFired, st.TriggersFired)
	}
	if tot.TuplesAdded != st.TuplesAdded {
		t.Errorf("added: replay %d, stats %d", tot.TuplesAdded, st.TuplesAdded)
	}
	if tot.Homomorphisms != st.HomomorphismsSeen {
		t.Errorf("homs: replay %d, stats %d", tot.Homomorphisms, st.HomomorphismsSeen)
	}
	if got := tot.Verdicts["chase"]; got != res.Verdict.String() {
		t.Errorf("verdict: replay %q, run %q", got, res.Verdict)
	}
	return tot
}

// A run cancelled between rounds keeps the completed rounds' statistics and
// writes a closed trace. The goal callback runs once before the loop and
// once at the end of every completed round, so cancelling at its third
// invocation stops the run after exactly two rounds — deterministically,
// with no timers involved.
func TestCancelledChaseTraceReplaysToPartialStats(t *testing.T) {
	in := reduction.MustBuild(words.IdempotentGapPresentation())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var buf bytes.Buffer
	e, err := chase.NewEngine(in.Schema, in.D, chase.Options{
		Governor: budget.New(ctx, budget.Limits{Rounds: 1000, Tuples: 1_000_000}),
		Sink:     obs.NewJSONLSink(&buf)})
	if err != nil {
		t.Fatal(err)
	}
	frozen, _ := in.D0.FrozenAntecedents()
	calls := 0
	res := e.Chase(frozen, func(*relation.Instance) bool {
		calls++
		if calls == 3 {
			cancel()
		}
		return false
	})
	if res.Verdict != chase.Unknown {
		t.Fatalf("verdict %v, want unknown", res.Verdict)
	}
	if res.Budget.Code != budget.CodeCancelled {
		t.Fatalf("budget outcome %v, want cancelled", res.Budget)
	}
	if res.Stats.Rounds != 2 {
		t.Errorf("rounds %d, want 2 (cancelled at the end of round 2)", res.Stats.Rounds)
	}
	tot := replayMatches(t, &buf, res)
	if got := tot.Stops["chase"]; got != "cancelled" {
		t.Errorf("replay stop %q, want %q", got, "cancelled")
	}
}

// A meter-exhausted run reports the spent resource and its trace says so.
func TestExhaustedChaseTraceReplaysToPartialStats(t *testing.T) {
	in := reduction.MustBuild(words.IdempotentGapPresentation())
	var buf bytes.Buffer
	res, err := chase.Implies(in.D, in.D0, chase.Options{
		Governor: budget.New(nil, budget.Limits{Rounds: 3, Tuples: 1_000_000}),
		Sink:     obs.NewJSONLSink(&buf)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != chase.Unknown {
		t.Fatalf("verdict %v, want unknown", res.Verdict)
	}
	if res.Budget != budget.Exhausted(budget.Rounds) {
		t.Fatalf("budget outcome %v, want exhausted rounds", res.Budget)
	}
	if res.Stats.Rounds != 3 {
		t.Errorf("rounds %d, want 3", res.Stats.Rounds)
	}
	tot := replayMatches(t, &buf, res)
	if got := tot.Stops["chase"]; got != "exhausted:rounds" {
		t.Errorf("replay stop %q, want %q", got, "exhausted:rounds")
	}
}

// A wall-clock deadline can fire anywhere — between rounds, inside trigger
// enumeration, inside the merge, inside materialization. Wherever it lands,
// the run must return promptly with a deadline outcome and a trace that
// still replays to the reported partial Stats.
func TestDeadlineMidRoundTraceStaysClosed(t *testing.T) {
	in := reduction.MustBuild(words.IdempotentGapPresentation())
	g, cancel := budget.ForDuration(30*time.Millisecond, budget.Limits{Rounds: 1_000_000})
	defer cancel()
	var buf bytes.Buffer
	start := time.Now()
	res, err := chase.Implies(in.D, in.D0, chase.Options{
		Governor: g, Sink: obs.NewJSONLSink(&buf)})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != chase.Unknown {
		t.Fatalf("verdict %v, want unknown", res.Verdict)
	}
	if res.Budget.Code != budget.CodeDeadline {
		t.Fatalf("budget outcome %v, want deadline", res.Budget)
	}
	// The gap instance diverges, so only the in-round checkpoints can stop
	// the run; a generous CI margin still catches a return to per-round-only
	// polling, under which a deep round takes minutes.
	if elapsed > 5*time.Second {
		t.Errorf("deadline overshoot: 30ms budget took %v", elapsed)
	}
	tot := replayMatches(t, &buf, res)
	if got := tot.Stops["chase"]; got != "deadline" {
		t.Errorf("replay stop %q, want %q", got, "deadline")
	}
}

// The gap presentation's chase lease at 8 rounds and 32768 tuples (the one
// a default-limit tdserve request reaches) has a fifth round with about 10^8
// antecedent homomorphisms, most of them active triggers of embedded
// dependencies, against 30,703 tuples of headroom. Each trigger is applied
// as it is enumerated, so the round ends at the tuple cap after 75,026
// homomorphisms in all, holding no trigger aside: about 30 MiB allocated,
// where buffering triggers before applying them allocated 850 MiB.
func TestGapLeaseChaseStaysInMemory(t *testing.T) {
	in := reduction.MustBuild(words.IdempotentGapPresentation())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := chase.Implies(in.D, in.D0, chase.Options{
		Governor: budget.New(nil, budget.Limits{Rounds: 8, Tuples: 32768})})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != chase.Unknown || res.Budget != budget.Exhausted(budget.Tuples) {
		t.Fatalf("verdict %v, budget %v; want unknown by tuples", res.Verdict, res.Budget)
	}
	const ceiling = 200 << 20
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= ceiling {
		t.Errorf("chase allocated %d MiB, want under %d MiB", grew>>20, ceiling>>20)
	}
}

// collapse:3's reduction has 352 dependencies, not all full. At 9 rounds
// and 3000 tuples its chase stops on the tuple cap in round 8, after 99,971
// homomorphisms. A round applies each trigger as it enumerates it, so
// nothing is held beyond the instance: the run allocates about 70 MiB,
// where buffering each enumeration's active triggers before applying any
// allocated 469 MiB.
func TestCollapse3ChaseStaysInMemory(t *testing.T) {
	in := reduction.MustBuild(words.CollapsePresentation(3))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := chase.Implies(in.D, in.D0, chase.Options{
		Governor: budget.New(nil, budget.Limits{Rounds: 9, Tuples: 3000})})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Budget != budget.Exhausted(budget.Tuples) || res.Stats.Rounds != 8 || res.Stats.HomomorphismsSeen != 99971 {
		t.Fatalf("budget %v, round %d, %d homomorphisms; want exhausted:tuples in round 8 after 99971",
			res.Budget, res.Stats.Rounds, res.Stats.HomomorphismsSeen)
	}
	const ceiling = 200 << 20
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= ceiling {
		t.Errorf("chase allocated %d MiB, want under %d MiB", grew>>20, ceiling>>20)
	}
}

// TDs are single-conclusion EIDs, so on a TD instance the two chase engines
// must agree under identical governors: same verdict, same budget outcome,
// same round and tuple counts, and isomorphic result instances (fresh-null
// naming may differ) unless a tuple cap cut the last round short. eid.Chase
// is the TD chase's independent reference: it re-joins the whole instance
// every round, where the TD chase joins only against the semi-naive delta.
// The cases are three small full and embedded sets, three reduction
// presentations, and a seeded corpus draw of the random and oracle TD
// instances the service answers, at tdserve's serving class.
func TestEIDChaseMatchesTDChaseUnderIdenticalGovernors(t *testing.T) {
	s := relation.MustSchema("A", "B", "C")
	join := td.MustParse(s, "R(a, b, c) & R(a, b', c') -> R(a, b, c')", "join")
	goal := td.MustParse(s, "R(a, b, c) & R(a, b', c') & R(a, b'', c'') -> R(a, b, c'')", "goal")
	emb := td.MustParse(s, "R(a, b, c) & R(a', b', c') -> R(a*, b, c')", "cross")
	for _, tc := range []struct {
		name string
		deps []*td.TD
		goal *td.TD
	}{
		{"full-implied", []*td.TD{join}, goal},
		{"full-not-implied", []*td.TD{join}, emb},
		{"embedded", []*td.TD{emb}, goal},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, d := range chaseDifferences(t, tc.deps, tc.goal, chase.DefaultLimits) {
				t.Error(d)
			}
		})
	}
	for _, tc := range []struct {
		name   string
		p      *words.Presentation
		limits budget.Limits
	}{
		{"twostep", words.TwoStepPresentation(), budget.Limits{Rounds: 12, Tuples: 1_000_000}},
		{"chain2", words.ChainPresentation(2), budget.Limits{Rounds: 12, Tuples: 1_000_000}},
		{"gap", words.IdempotentGapPresentation(), budget.Limits{Rounds: 3, Tuples: 1_000_000}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := reduction.MustBuild(tc.p)
			for _, d := range chaseDifferences(t, in.D, in.D0, tc.limits) {
				t.Error(d)
			}
		})
	}
	t.Run("corpus", func(t *testing.T) {
		ins, err := corpus.Generate(corpus.Options{Seed: 1, Random: 200, Oracle: 200, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		serving := budget.Limits{Rounds: 24, Tuples: 500}
		n := 0
		for _, in := range ins {
			if in.Kind != corpus.KindTD {
				continue
			}
			n++
			for _, d := range chaseDifferences(t, in.Deps, in.Goal, serving) {
				t.Errorf("%s: %s", in.ID, d)
			}
		}
		t.Logf("%d corpus TD instances compared", n)
	})
}

// chaseDifferences runs the TD chase and the EID chase on (deps, goal),
// each under a fresh governor with limits, and lists how they differ.
func chaseDifferences(t *testing.T, deps []*td.TD, goal *td.TD, limits budget.Limits) []string {
	t.Helper()
	tres, err := chase.Implies(deps, goal, chase.Options{
		Governor: budget.New(nil, limits)})
	if err != nil {
		t.Fatal(err)
	}
	edeps := make([]*eid.EID, len(deps))
	for i, d := range deps {
		edeps[i] = eid.FromTD(d)
	}
	eres, err := eid.Implies(edeps, eid.FromTD(goal), eid.Options{
		Governor: budget.New(nil, limits)})
	if err != nil {
		t.Fatal(err)
	}
	var diffs []string
	if tres.Verdict.String() != eres.Verdict.String() {
		diffs = append(diffs, fmt.Sprintf("verdicts differ: td %v, eid %v", tres.Verdict, eres.Verdict))
	}
	if tres.Budget != eres.Budget {
		diffs = append(diffs, fmt.Sprintf("budget outcomes differ: td %v, eid %v", tres.Budget, eres.Budget))
	}
	if tres.Stats.Rounds != eres.Rounds {
		diffs = append(diffs, fmt.Sprintf("rounds differ: td %d, eid %d", tres.Stats.Rounds, eres.Rounds))
	}
	if tres.Stats.TuplesAdded != eres.TuplesAdded {
		diffs = append(diffs, fmt.Sprintf("tuples added differ: td %d, eid %d", tres.Stats.TuplesAdded, eres.TuplesAdded))
	}
	// A tuple cap cuts a round short, and which of the round's tuples made
	// it in then follows each engine's trigger order; only the counts are
	// comparable there.
	if tres.Budget != budget.Exhausted(budget.Tuples) && !relation.Isomorphic(tres.Instance, eres.Instance) {
		diffs = append(diffs, fmt.Sprintf("result instances not isomorphic: td %d tuples, eid %d tuples",
			tres.Instance.Len(), eres.Instance.Len()))
	}
	return diffs
}
