package portfolio

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"templatedep/internal/budget"
	"templatedep/internal/cert"
	"templatedep/internal/core"
	"templatedep/internal/obs"
	"templatedep/internal/reduction"
	"templatedep/internal/search"
	"templatedep/internal/td"
	"templatedep/internal/tm"
	"templatedep/internal/words"
)

func mustPreset(t *testing.T, name string) *words.Presentation {
	t.Helper()
	p, err := words.Preset(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func analyze(t *testing.T, name string, b core.Budget) *Result {
	t.Helper()
	res, err := AnalyzePresentation(mustPreset(t, name), b)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// tight returns arm ceilings small enough to run the gap preset in test
// time. Gap's chase instance roughly squares per round, and the engines
// only consult their meters at coarse checkpoints — a tuple ceiling under
// the round-five blow-up keeps every lease short, the same reason the CLI
// smoke runs gap under a deadline. Every arm still runs several leases,
// stalls, and retires, which is exactly what the gap tests exercise.
func tight() core.Budget {
	b := core.Budget{}
	b.Chase.Governor = budget.New(nil, budget.Limits{Rounds: 16, Tuples: 1500})
	b.ModelSearch.Governor = budget.New(nil, budget.Limits{Nodes: 50000})
	return b
}

func TestAnalyzeVerdicts(t *testing.T) {
	for _, tc := range []struct {
		preset string
		want   core.Verdict
		winner string
	}{
		{"twostep", core.Implied, "derivation"},
		{"chain:3", core.Implied, "derivation"},
		{"chain:6", core.Implied, "derivation"},
		{"collapse:2", core.Implied, "derivation"},
		{"power", core.FiniteCounterexample, "model-search"},
		{"collapse:3", core.Implied, "kb"},
		{"collapse:4", core.Implied, "kb"},
		{"gap", core.Unknown, ""},
	} {
		b := core.Budget{}
		if tc.preset == "gap" {
			b = tight()
		}
		res := analyze(t, tc.preset, b)
		if res.Verdict != tc.want || res.Winner != tc.winner {
			t.Errorf("%s: verdict %v won by %q, want %v won by %q", tc.preset, res.Verdict, res.Winner, tc.want, tc.winner)
		}
	}
}

// The reduction's (D, D0) is built exactly when an arm needs it: the
// chase arm's first lease or a model-search win. A derivation or kb win
// that preempts the chase leaves Result.Instance nil; a built instance is
// the one reduction.Build gives.
func TestReductionBuiltOnlyWhenNeeded(t *testing.T) {
	for _, tc := range []struct {
		preset string
		built  bool
	}{
		{"twostep", false}, {"chain:2", false}, {"collapse:2", false},
		{"collapse:4", false}, {"power", true}, {"tower:2", true}, {"gap", true},
	} {
		b := core.Budget{}
		if tc.preset == "gap" {
			b = tight()
		}
		res := analyze(t, tc.preset, b)
		chaseRan := false
		for _, a := range res.Arms {
			if a.Name == "chase" {
				chaseRan = a.Leases > 0
			}
		}
		needed := chaseRan || res.Winner == "model-search"
		if got := res.Instance != nil; got != needed || got != tc.built {
			t.Errorf("%s: built %v, chase ran %v, winner %q; want built %v",
				tc.preset, got, chaseRan, res.Winner, tc.built)
		}
		if res.Instance == nil {
			continue
		}
		want := reduction.MustBuild(mustPreset(t, tc.preset))
		if len(res.Instance.D) != len(want.D) || res.Instance.D0.String() != want.D0.String() {
			t.Fatalf("%s: built instance differs from reduction.Build's", tc.preset)
		}
		for i, d := range want.D {
			if res.Instance.D[i].String() != d.String() {
				t.Fatalf("%s: dependency %d differs from reduction.Build's", tc.preset, i)
			}
		}
	}
}

func TestAnalyzeCertificates(t *testing.T) {
	res := analyze(t, "power", core.Budget{})
	if res.Verdict != core.FiniteCounterexample {
		t.Fatalf("verdict %v", res.Verdict)
	}
	if res.Winner != "model-search" {
		t.Errorf("winner %q, want model-search", res.Winner)
	}
	if res.Witness == nil || res.CounterModel == nil {
		t.Error("missing counter-model certificates")
	}
	if !res.GoalRefuted {
		t.Error("power's goal is finitely refutable; want GoalRefuted")
	}
}

// A finitely refutable presentation ends with a counter-model whose
// database violates D0.
func TestAnalyzePresentationCounterexample(t *testing.T) {
	res, err := AnalyzePresentation(words.PowerPresentation(), core.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != core.FiniteCounterexample {
		t.Fatalf("verdict %v", res.Verdict)
	}
	if res.CounterModel == nil || res.Witness == nil {
		t.Fatal("missing counterexample artifacts")
	}
	// The database-level counterexample is verified inside; spot-check D0.
	if ok, _ := res.Instance.D0.Satisfies(res.CounterModel.Instance); ok {
		t.Error("counter-model satisfies D0")
	}
}

// The idempotent-gap instance lies in neither set; with finite budgets on
// the closure and the model search the result must be Unknown. The chase
// ceiling is tight()'s, which keeps gap's chase leases short.
func TestAnalyzePresentationUnknownGap(t *testing.T) {
	b := tight()
	b.Closure = words.ClosureOptions{Governor: budget.New(nil, budget.Limits{Words: 300}), LengthCap: 8}
	b.ModelSearch = search.Options{Orders: budget.Range{Lo: 2, Hi: 4}, Governor: budget.New(nil, budget.Limits{Nodes: 200000})}
	res, err := AnalyzePresentation(words.IdempotentGapPresentation(), b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != core.Unknown {
		t.Fatalf("verdict %v — the gap instance must stay undecided", res.Verdict)
	}
}

// A derivable presentation is won by the derivation arm in its opening
// lease, and its certificate is the closure's derivation of A0 = 0.
func TestAnalyzePresentationImplied(t *testing.T) {
	res := analyze(t, "twostep", core.Budget{})
	if res.Verdict != core.Implied || res.Winner != "derivation" || res.Ticks != 1 {
		t.Fatalf("verdict %v won by %q in %d ticks, want implied by derivation in 1", res.Verdict, res.Winner, res.Ticks)
	}
	c := res.Cert()
	if c == nil || c.Kind != cert.KindDerivation {
		t.Fatalf("certificate %v, want a derivation", c)
	}
	if err := cert.Check(c); err != nil {
		t.Errorf("certificate rejected: %v", err)
	}
}

// The Turing-machine encodings are the reduction's hard instances: kb
// never completes on them, and the derivation arm derives A0 = 0 for a
// halting machine. The chase arm gets a token budget, since the encoding's
// schema is wide.
func TestAnalyzeTMHalting(t *testing.T) {
	p, err := tm.EncodePresentation(tm.WriteOneAndHalt(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b := core.Budget{}
	b.Chase.Governor = budget.New(nil, budget.Limits{Rounds: 1, Tuples: 50})
	res, err := AnalyzePresentation(p, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != core.Implied || res.Winner != "derivation" {
		t.Fatalf("verdict %v won by %q, want implied by derivation", res.Verdict, res.Winner)
	}
	if err := cert.Check(res.Cert()); err != nil {
		t.Errorf("certificate rejected: %v", err)
	}
}

// armReport returns the named arm's report.
func armReport(t *testing.T, res *Result, name string) ArmReport {
	t.Helper()
	for _, a := range res.Arms {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no %s arm in %+v", name, res.Arms)
	return ArmReport{}
}

// GoalRefuted is set by whichever arm refutes the goal first. On power the
// closure exhausts A0's one-word class in its opening lease. On gap the
// class is infinite, so the closure's window cuts it, and kb refutes the
// goal in the same tick; the derivation arm then retires "refuted" at its
// next turn without running another lease.
func TestGoalRefutedFlag(t *testing.T) {
	res := analyze(t, "power", core.Budget{})
	if d := armReport(t, res, "derivation"); !res.GoalRefuted || d.Leases != 1 || d.Note != "refuted" {
		t.Errorf("power: GoalRefuted %v, derivation arm %+v; want refuted in one lease", res.GoalRefuted, d)
	}

	res = analyze(t, "gap", tight())
	if !res.GoalRefuted {
		t.Fatal("gap: completion should refute derivability")
	}
	if k := armReport(t, res, "kb"); k.Note != "refuted" || k.Leases != 1 {
		t.Errorf("gap: kb arm %+v, want refuted in its first lease", k)
	}
	if d := armReport(t, res, "derivation"); d.Leases != 1 || d.Note != "refuted" {
		t.Errorf("gap: derivation arm %+v, want one lease then refuted", d)
	}
	for _, d := range res.Decisions {
		if d.Arm == "derivation" && d.Signal == "refuted" && (d.Tick != 2 || d.New != 0) {
			t.Errorf("gap: derivation retired at tick %d with New %d, want tick 2 and 0", d.Tick, d.New)
		}
	}

	if res := analyze(t, "twostep", core.Budget{}); res.GoalRefuted {
		t.Error("twostep: spurious refutation")
	}
}

func TestGapRefutedButUnknown(t *testing.T) {
	res := analyze(t, "gap", tight())
	if res.Verdict != core.Unknown {
		t.Fatalf("gap must stay Unknown, got %v (winner %q)", res.Verdict, res.Winner)
	}
	if !res.GoalRefuted {
		t.Error("completion refutes gap's goal; want GoalRefuted")
	}
	if res.Stop.Stopped() {
		t.Errorf("every arm retires on its own; want zero Stop, got %v", res.Stop)
	}
	for _, a := range res.Arms {
		if !a.Done {
			t.Errorf("arm %s not retired at end of run", a.Name)
		}
	}
}

// A Knuth–Bendix win must end the run in the tick it happens in: the
// derivation arm, which goes first, has run its one tick-1 lease; no arm
// after kb gets a lease; and each is retired with a preempted decision in
// the same tick.
func TestKBWinPreemptsInSameTick(t *testing.T) {
	res := analyze(t, "collapse:4", core.Budget{})
	if res.Verdict != core.Implied || res.Winner != "kb" {
		t.Fatalf("want kb to win Implied, got %v winner %q", res.Verdict, res.Winner)
	}
	if res.Ticks != 1 {
		t.Errorf("kb completes in its first lease; want 1 tick, got %d", res.Ticks)
	}
	preempted := map[string]bool{}
	for _, d := range res.Decisions {
		if d.Signal == "preempted" {
			if d.Tick != res.Ticks {
				t.Errorf("preemption of %s at tick %d, want %d", d.Arm, d.Tick, res.Ticks)
			}
			if d.New != 0 {
				t.Errorf("preemption of %s with New %d, want 0", d.Arm, d.New)
			}
			preempted[d.Arm] = true
		}
	}
	for _, a := range res.Arms {
		if a.Name == "kb" {
			continue
		}
		want := 0
		if a.Name == "derivation" {
			want = 1
		}
		if a.Leases != want {
			t.Errorf("arm %s ran %d leases in kb's winning tick, want %d", a.Name, a.Leases, want)
		}
		if !preempted[a.Name] {
			t.Errorf("arm %s has no preempted decision", a.Name)
		}
	}
}

func traceOf(t *testing.T, name string, b core.Budget) (*Result, []byte) {
	t.Helper()
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	b.Sink = sink
	res, err := AnalyzePresentation(mustPreset(t, name), b)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// The whole portfolio trace — every engine event and every reallocation
// decision — must be byte-identical across re-runs. This is the
// determinism contract that makes portfolio traces replayable evidence.
func TestTraceDeterminism(t *testing.T) {
	for _, preset := range []string{"power", "gap"} {
		b := core.Budget{}
		if preset == "gap" {
			b = tight()
		}
		res1, trace1 := traceOf(t, preset, b)
		res2, trace2 := traceOf(t, preset, b)
		if !bytes.Equal(trace1, trace2) {
			t.Errorf("%s: re-run trace differs", preset)
		}
		if res1.Verdict != res2.Verdict || len(res1.Decisions) != len(res2.Decisions) {
			t.Errorf("%s: re-run results differ", preset)
		}
	}
}

// Verdicts are invariant under the tick scale: moving the lease boundaries
// changes the trace but never the answer.
func TestVerdictInvariantUnderTickScale(t *testing.T) {
	for _, preset := range []string{"twostep", "power", "chain:3"} {
		var want core.Verdict
		for i, scale := range []int{1, 2, 3} {
			res, err := analyzePresentation(mustPreset(t, preset), core.Budget{}, scale)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				want = res.Verdict
				continue
			}
			if res.Verdict != want {
				t.Errorf("%s: tick scale %d verdict %v, want %v", preset, scale, res.Verdict, want)
			}
		}
	}
}

// Replaying a portfolio trace must reproduce the in-memory decision
// sequence exactly: one portfolio_realloc event per Decision, the same
// granted totals, and the same final verdict.
func TestTraceReplayMatchesDecisions(t *testing.T) {
	res, trace := traceOf(t, "gap", tight())
	tot, err := obs.Replay(bytes.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	if tot.PortfolioReallocs != len(res.Decisions) {
		t.Errorf("replayed %d reallocs, result has %d decisions", tot.PortfolioReallocs, len(res.Decisions))
	}
	granted := map[string]int{}
	for _, d := range res.Decisions {
		if d.New > d.Old {
			granted[d.Meter.String()] += d.New - d.Old
		}
	}
	for meter, want := range granted {
		if tot.PortfolioGranted[meter] != want {
			t.Errorf("granted[%s] = %d replayed, %d decided", meter, tot.PortfolioGranted[meter], want)
		}
	}
	if got := tot.Verdicts["portfolio"]; got != res.Verdict.String() {
		t.Errorf("replayed verdict %q, want %q", got, res.Verdict)
	}
	// The counter vocabulary must agree with the decision sequence too:
	// feed the decoded trace through a CounterSink.
	c := obs.NewCounters()
	cs := obs.NewCounterSink(c)
	for _, line := range bytes.Split(bytes.TrimRight(trace, "\n"), []byte("\n")) {
		var e obs.Event
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatal(err)
		}
		cs.Event(e)
	}
	if got := c.Get("portfolio.reallocs"); got != int64(len(res.Decisions)) {
		t.Errorf("counter portfolio.reallocs = %d, want %d", got, len(res.Decisions))
	}
}

// Starvation must not kill an arm: a starved arm keeps probing, so on an
// instance only that arm can settle, the portfolio still answers.
// Collapse's alphabet makes the counter-model search enumerate
// exponentially, so with completion capped below its confluence point the
// search arm stalls lease after lease — the canonical starvation victim.
func TestStarvedArmStillProbes(t *testing.T) {
	b := core.Budget{}
	b.Completion.Governor = budget.New(nil, budget.Limits{Rules: 100, Rounds: 50})
	b.Chase.Governor = budget.New(nil, budget.Limits{Rounds: 2, Tuples: 200})
	b.ModelSearch.Governor = budget.New(nil, budget.Limits{Nodes: 200000})
	b.ModelSearch.Orders = budget.Range{Lo: 2, Hi: 2}
	res := analyze(t, "collapse:4", b)
	withheld := 0
	probes := 0
	for _, d := range res.Decisions {
		switch d.Signal {
		case "stalled":
			withheld++
		case "probe":
			probes++
		}
	}
	if withheld == 0 {
		t.Error("collapse should starve the search arm at least once")
	}
	if withheld > 0 && probes == 0 {
		t.Error("starved arms must probe, never sleep forever")
	}
}

func TestInferTDLevel(t *testing.T) {
	_, fig1 := td.GarmentExample()
	res, err := Infer([]*td.TD{fig1}, fig1, core.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != core.Implied || res.Winner != "chase" {
		t.Errorf("self-implication: verdict %v winner %q", res.Verdict, res.Winner)
	}
	if res.Chase == nil {
		t.Error("missing chase result")
	}

	res, err = Infer(nil, fig1, core.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != core.FiniteCounterexample {
		t.Errorf("empty-D: verdict %v", res.Verdict)
	}
	if res.Counterexample == nil {
		t.Error("missing counterexample")
	}
}

// Ceilings from the per-engine governors bound the portfolio: with every
// arm pinned to a tiny ceiling, the run retires everything and reports
// Unknown instead of burning the engines' defaults.
func TestArmCeilingsRespected(t *testing.T) {
	_, fig1 := td.GarmentExample()
	b := core.Budget{}
	b.Chase.Governor = budget.New(nil, budget.Limits{Rounds: 1, Tuples: 2})
	b.FiniteDB.Governor = budget.New(nil, budget.Limits{Nodes: 5})
	b.FiniteDB.Sizes = budget.Range{Lo: 1, Hi: 1}
	res, err := Infer([]*td.TD{fig1}, fig1, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != core.Unknown {
		t.Fatalf("verdict %v under starvation ceilings", res.Verdict)
	}
	for _, d := range res.Decisions {
		if d.Arm == "chase" && d.Meter == budget.Rounds && d.New > 1 {
			t.Errorf("chase rounds grant %d exceeds ceiling 1", d.New)
		}
	}
}

// A parent pool meter clamps grants: no cumulative tuples grant may exceed
// the pool.
func TestParentPoolClampsGrants(t *testing.T) {
	const pool = 20000
	b := tight()
	b.Governor = budget.New(nil, budget.Limits{Tuples: pool})
	res := analyze(t, "gap", b)
	for _, d := range res.Decisions {
		if d.Meter == budget.Tuples && d.New > pool {
			t.Errorf("tick %d %s: tuples grant %d exceeds pool %d", d.Tick, d.Arm, d.New, pool)
		}
	}
	if res.Verdict != core.Unknown {
		t.Errorf("verdict %v", res.Verdict)
	}
}

// A parent deadline must stop the portfolio within one checkpoint batch of
// the running lease, not at the end of the lease: serve's RequestTimeout
// relies on it. On the gap presentation kb refutes the goal and retires,
// and neither the model search nor the diverging chase can settle it; the
// chase's ceilings here are so large that only the deadline can stop the
// run. The chase polls the shared context every 4096 homomorphisms, so the
// run returns shortly after the deadline; the wall-clock bound below is a
// generous CI margin.
func TestDeadlineOvershootBounded(t *testing.T) {
	g, cancel := budget.ForDuration(150*time.Millisecond, budget.Limits{})
	defer cancel()
	b := core.Budget{Governor: g}
	b.Chase.Governor = budget.New(nil, budget.Limits{Rounds: 1 << 20, Tuples: 1 << 30})
	start := time.Now()
	res := analyze(t, "gap", b)
	elapsed := time.Since(start)
	if res.Verdict != core.Unknown || res.Winner != "" {
		t.Errorf("verdict %v winner %q, want unknown with no winner", res.Verdict, res.Winner)
	}
	if res.Stop.Code != budget.CodeDeadline {
		t.Errorf("stop %v, want a deadline stop", res.Stop)
	}
	if elapsed > 5*time.Second {
		t.Errorf("deadline overshoot: 150ms budget took %v", elapsed)
	}
}

// cancelOnVerdict cancels a context when the portfolio announces its
// verdict — after the last lease.
type cancelOnVerdict context.CancelFunc

func (f cancelOnVerdict) Event(e obs.Event) {
	if e.Type == obs.EvVerdict && e.Src == "portfolio" {
		f()
	}
}

// A certificate is the winning arm's own proof, so nothing runs after the
// verdict: a run cancelled once its verdict is in keeps both the verdict
// and a certificate that checks.
func TestCertifyReplayStopsWithParent(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res := analyze(t, "twostep", core.Budget{
		Governor: budget.New(ctx, budget.Limits{}), Sink: cancelOnVerdict(cancel)})
	if res.Verdict != core.Implied {
		t.Fatalf("verdict %v, want implied", res.Verdict)
	}
	if ctx.Err() == nil {
		t.Fatal("the verdict event did not cancel the parent")
	}
	c := res.Cert()
	if c == nil {
		t.Fatal("a run cancelled after its verdict lost its certificate")
	}
	if err := cert.Check(c); err != nil {
		t.Errorf("certificate rejected: %v", err)
	}
}

// Every definitive verdict carries a certificate built from its winning
// arm's own proof, and it checks: a derivation or kb win as a derivation,
// a chase or search win as the chase sequence or the database. The presets
// run at the zero budget and at a small serving class (gap only there: at
// default chase limits its reduction outgrows memory).
func TestEveryDefinitiveVerdictCarriesItsCertificate(t *testing.T) {
	presets := []string{"power", "twostep", "chain:1", "chain:2", "chain:3", "chain:4", "chain:5", "chain:6",
		"nilpotent:2", "nilpotent:3", "nilpotent:4", "nilpotent:5", "tower:1", "tower:2", "tower:3", "tower:4",
		"collapse:2", "collapse:3", "collapse:4", "gap"}
	small := func() core.Budget {
		g := budget.New(nil, budget.Limits{Rounds: 24, Tuples: 500, Nodes: 150000})
		b := core.Budget{Governor: g}
		b.Chase.Governor = g.Child(budget.Limits{Rounds: 24, Tuples: 500})
		b.ModelSearch.Governor = g.Child(budget.Limits{Nodes: 150000})
		return b
	}
	for _, name := range presets {
		for _, class := range []string{"zero", "small"} {
			b := core.Budget{}
			if class == "small" {
				b = small()
			} else if name == "gap" {
				continue
			}
			res := analyze(t, name, b)
			c := res.Cert()
			if res.Verdict == core.Unknown {
				if name != "gap" || c != nil {
					t.Errorf("%s/%s: unknown (cert %v)", name, class, c != nil)
				}
				continue
			}
			if c == nil {
				t.Errorf("%s/%s: %v won by %s has no certificate", name, class, res.Verdict, res.Winner)
				continue
			}
			if err := cert.Check(c); err != nil {
				t.Errorf("%s/%s: certificate rejected: %v", name, class, err)
			}
			if (res.Winner == "derivation" || res.Winner == "kb") && c.Kind != cert.KindDerivation {
				t.Errorf("%s/%s: %s win certified as %s, want derivation", name, class, res.Winner, c.Kind)
			}
		}
	}
}
