package portfolio

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"templatedep/internal/budget"
	"templatedep/internal/obs"
	"templatedep/internal/td"
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

func analyze(t *testing.T, name string, opt Options) *Result {
	t.Helper()
	res, err := AnalyzePresentation(mustPreset(t, name), opt)
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
func tight() Options {
	opt := Options{}
	opt.Chase.Governor = budget.New(nil, budget.Limits{Rounds: 16, Tuples: 1500})
	opt.ModelSearch.Governor = budget.New(nil, budget.Limits{Nodes: 50000})
	return opt
}

func TestAnalyzeVerdicts(t *testing.T) {
	for _, tc := range []struct {
		preset string
		want   Verdict
	}{
		{"twostep", Implied},
		{"chain:3", Implied},
		{"power", FiniteCounterexample},
		{"collapse:4", Implied},
		{"gap", Unknown},
	} {
		opt := Options{}
		if tc.preset == "gap" {
			opt = tight()
		}
		res := analyze(t, tc.preset, opt)
		if res.Verdict != tc.want {
			t.Errorf("%s: verdict %v (winner %q), want %v", tc.preset, res.Verdict, res.Winner, tc.want)
		}
		if res.Verdict != Unknown && res.Winner == "" {
			t.Errorf("%s: definitive verdict with no winner", tc.preset)
		}
	}
}

func TestAnalyzeCertificates(t *testing.T) {
	res := analyze(t, "power", Options{})
	if res.Verdict != FiniteCounterexample {
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

func TestGapRefutedButUnknown(t *testing.T) {
	res := analyze(t, "gap", tight())
	if res.Verdict != Unknown {
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

// A Knuth–Bendix win must end the run in the tick it happens in: no other
// arm gets a lease, and each is retired with a preempted decision in the
// same tick.
func TestKBWinPreemptsInSameTick(t *testing.T) {
	res := analyze(t, "collapse:4", Options{})
	if res.Verdict != Implied || res.Winner != "kb" {
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
		if a.Leases != 0 {
			t.Errorf("arm %s ran %d leases after a tick-1 kb win", a.Name, a.Leases)
		}
		if !preempted[a.Name] {
			t.Errorf("arm %s has no preempted decision", a.Name)
		}
	}
}

func traceOf(t *testing.T, name string, opt Options) (*Result, []byte) {
	t.Helper()
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	opt.Sink = sink
	res, err := AnalyzePresentation(mustPreset(t, name), opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// The whole portfolio trace — every engine event and every reallocation
// decision — must be byte-identical across re-runs and across Workers
// values. This is the determinism contract that makes portfolio traces
// replayable evidence.
func TestTraceDeterminism(t *testing.T) {
	for _, preset := range []string{"power", "gap"} {
		base := Options{}
		if preset == "gap" {
			base = tight()
		}
		o1 := base
		o1.Workers = 1
		res1, trace1 := traceOf(t, preset, o1)
		res2, trace2 := traceOf(t, preset, o1)
		if !bytes.Equal(trace1, trace2) {
			t.Errorf("%s: re-run trace differs", preset)
		}
		if res1.Verdict != res2.Verdict || len(res1.Decisions) != len(res2.Decisions) {
			t.Errorf("%s: re-run results differ", preset)
		}
		o4 := base
		o4.Workers = 4
		res4, trace4 := traceOf(t, preset, o4)
		if !bytes.Equal(trace1, trace4) {
			t.Errorf("%s: Workers=4 trace differs from Workers=1", preset)
		}
		if res1.Verdict != res4.Verdict {
			t.Errorf("%s: Workers=4 verdict differs", preset)
		}
	}
}

// Verdicts are invariant under the tick scale: moving the lease boundaries
// changes the trace but never the answer.
func TestVerdictInvariantUnderTickScale(t *testing.T) {
	for _, preset := range []string{"twostep", "power", "chain:3"} {
		var want Verdict
		for i, scale := range []int{1, 2, 3} {
			res := analyze(t, preset, Options{TickScale: scale})
			if i == 0 {
				want = res.Verdict
				continue
			}
			if res.Verdict != want {
				t.Errorf("%s: TickScale %d verdict %v, want %v", preset, scale, res.Verdict, want)
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
	opt := Options{}
	opt.Completion.Governor = budget.New(nil, budget.Limits{Rules: 100, Rounds: 50})
	opt.Chase.Governor = budget.New(nil, budget.Limits{Rounds: 2, Tuples: 200})
	opt.ModelSearch.Governor = budget.New(nil, budget.Limits{Nodes: 200000})
	opt.ModelSearch.Orders = budget.Range{Lo: 2, Hi: 2}
	res := analyze(t, "collapse:4", opt)
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
	res, err := Infer([]*td.TD{fig1}, fig1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Implied || res.Winner != "chase" {
		t.Errorf("self-implication: verdict %v winner %q", res.Verdict, res.Winner)
	}
	if res.Chase == nil {
		t.Error("missing chase result")
	}

	res, err = Infer(nil, fig1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != FiniteCounterexample {
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
	opt := Options{}
	opt.Chase.Governor = budget.New(nil, budget.Limits{Rounds: 1, Tuples: 2})
	opt.FiniteDB.Governor = budget.New(nil, budget.Limits{Nodes: 5})
	opt.FiniteDB.Sizes = budget.Range{Lo: 1, Hi: 1}
	res, err := Infer([]*td.TD{fig1}, fig1, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Unknown {
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
	opt := tight()
	opt.Governor = budget.New(nil, budget.Limits{Tuples: pool})
	res := analyze(t, "gap", opt)
	for _, d := range res.Decisions {
		if d.Meter == budget.Tuples && d.New > pool {
			t.Errorf("tick %d %s: tuples grant %d exceeds pool %d", d.Tick, d.Arm, d.New, pool)
		}
	}
	if res.Verdict != Unknown {
		t.Errorf("verdict %v", res.Verdict)
	}
}

// Memory carries learned allocations and structural retirements into the
// next run: the kb arm's definitive refutation stays retired, and the
// chase arm opens at (at least) its learned grant.
func TestMemoryCarriesAcrossRuns(t *testing.T) {
	fopt := tight()
	fopt.MaxTicks = 4
	first := analyze(t, "gap", fopt)
	if first.Memory == nil {
		t.Fatal("no memory")
	}
	kbMem, ok := first.Memory.Arms["kb"]
	if !ok || !kbMem.Done || kbMem.Note != "refuted" {
		t.Fatalf("kb memory %+v, want structural refutation", kbMem)
	}
	var learned int
	for _, a := range first.Arms {
		if a.Name == "chase" {
			learned = a.Grants.Rounds
		}
	}
	if learned <= 2 {
		t.Fatalf("chase should have grown past its seed in 4 ticks, got %d", learned)
	}

	sopt := tight()
	sopt.MaxTicks = 4
	sopt.Memory = first.Memory
	second := analyze(t, "gap", sopt)
	for _, a := range second.Arms {
		if a.Name == "kb" {
			if a.Leases != 0 || !a.Done {
				t.Errorf("kb re-ran despite remembered refutation: %+v", a)
			}
		}
	}
	for _, d := range second.Decisions {
		if d.Arm == "chase" && d.Signal == "seed" {
			if d.New < learned {
				t.Errorf("chase reseeded at %d, below learned grant %d", d.New, learned)
			}
			break
		}
	}
	if !second.GoalRefuted {
		t.Error("remembered refutation must still set GoalRefuted")
	}
}

// cancelOnVerdict cancels a context when the portfolio announces its
// verdict — after the last lease, before the certifying replay.
type cancelOnVerdict context.CancelFunc

func (f cancelOnVerdict) Event(e obs.Event) {
	if e.Type == obs.EvVerdict && e.Src == "portfolio" {
		f()
	}
}

// The certifying replay shares the parent pool's context: a run cancelled
// once its verdict is in keeps the verdict and ships no certificate.
func TestCertifyReplayStopsWithParent(t *testing.T) {
	res := analyze(t, "twostep", Options{Certify: true})
	if res.Verdict != Implied || res.Cert() == nil {
		t.Fatalf("uncancelled run: verdict %v, cert %v; want implied with a certificate", res.Verdict, res.Cert() != nil)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res = analyze(t, "twostep", Options{Certify: true,
		Governor: budget.New(ctx, budget.Limits{}), Sink: cancelOnVerdict(cancel)})
	if res.Verdict != Implied {
		t.Fatalf("verdict %v, want implied", res.Verdict)
	}
	if res.Cert() != nil {
		t.Error("a replay under a cancelled parent returned a certificate")
	}
}
