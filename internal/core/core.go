// Package core is the high-level facade of the library: it wires the word
// problem solvers, the finite-model searches, the reduction, and the chase
// into the paper's dual semidecision picture.
//
// The Main Theorem says the sets
//
//	IMPL = {(D, D0) : D0 holds in every database satisfying D}
//	FCEX = {(D, D0) : D0 fails in some finite database satisfying D}
//
// are effectively inseparable — no algorithm decides between them. What CAN
// be done is run a semi-procedure for each set side by side under explicit
// budgets:
//
//   - the chase semidecides IMPL (its chase sequence certifies
//     membership);
//   - finite-database / finite-semigroup search semidecides FCEX (a
//     counterexample certifies membership);
//   - on instances in neither set — they exist, e.g. the reduction of
//     {A0·A0 = A0} — both procedures run forever, and a budgeted run
//     reports Unknown. Undecidability guarantees that no budget heuristic
//     can eliminate the Unknown outcome; this library makes the phenomenon
//     observable rather than pretending to decide it.
//
// The adaptive portfolio (internal/portfolio) is the one front-end that
// runs the engines side by side. This package supplies the vocabulary it
// shares with every front-end — Budget, the one configuration of a run,
// and Verdict — and the sequential presentation pipeline
// (AnalyzePresentation and its iterative-deepening wrapper), which returns
// the reduction's derivation and counter-model proof objects.
package core

import (
	"fmt"

	"templatedep/internal/budget"
	"templatedep/internal/cert"
	"templatedep/internal/chase"
	"templatedep/internal/finitemodel"
	"templatedep/internal/obs"
	"templatedep/internal/reduction"
	"templatedep/internal/relation"
	"templatedep/internal/rewrite"
	"templatedep/internal/search"
	"templatedep/internal/semigroup"
	"templatedep/internal/tableau"
	"templatedep/internal/tm"
	"templatedep/internal/words"
)

// Budget is the one configuration of an inference run. Its zero value is
// the default every front-end runs: each engine under its DefaultLimits
// and default windows, no parent pool, no sink.
//
// The adaptive portfolio (internal/portfolio) reads every field except
// Closure: a governor in an engine's options sets that arm's hard
// ceilings, and the portfolio swaps it for per-lease children. The
// sequential presentation pipeline (AnalyzePresentation) reads every
// field except FiniteDB. Neither needs a setting to certify: every
// definitive verdict keeps the proof its winning engine found, and Cert
// serializes it on demand.
type Budget struct {
	// Chase.Workers parallelizes the chase; results and traces are
	// identical for every value.
	Chase       chase.Options
	Closure     words.ClosureOptions
	ModelSearch search.Options
	FiniteDB    finitemodel.Options
	// Completion bounds Knuth–Bendix completion: the portfolio's kb arm
	// and the pipeline's refutation side-check. Every front-end, tdserve
	// included, leaves it at rewrite.DefaultLimits.
	Completion rewrite.CompletionOptions
	// Governor is the run-wide governor: its context stops the whole run,
	// and engines without a governor of their own get children of it. In
	// the portfolio any meter it caps is a pool shared by the arms. Nil
	// means an unlimited background governor.
	Governor *budget.Governor
	// Sink receives the front-end's own events and is threaded into every
	// engine that accepts one, so one sink observes the whole run. Nil
	// disables emission. See docs/OBSERVABILITY.md.
	Sink obs.Sink
}

// withSink propagates b.Sink into sub-procedure options that have none,
// returning the adjusted copy.
func (b Budget) withSink() Budget {
	if b.Sink != nil {
		if b.Chase.Sink == nil {
			b.Chase.Sink = b.Sink
		}
		if b.ModelSearch.Sink == nil {
			b.ModelSearch.Sink = b.Sink
		}
		if b.Completion.Sink == nil {
			b.Completion.Sink = b.Sink
		}
	}
	return b
}

// withGovernor derives child governors from b.Governor for sub-procedures
// that have none: children share the parent context but meter
// independently under each engine's default limits, replacing the old
// per-engine Max* knobs with one cancellation root.
func (b Budget) withGovernor() Budget {
	if b.Governor == nil {
		return b
	}
	if b.Chase.Governor == nil {
		b.Chase.Governor = b.Governor.Child(chase.DefaultLimits)
	}
	if b.Closure.Governor == nil {
		b.Closure.Governor = b.Governor.Child(words.DefaultLimits)
	}
	if b.ModelSearch.Governor == nil {
		b.ModelSearch.Governor = b.Governor.Child(search.DefaultLimits)
	}
	if b.Completion.Governor == nil {
		b.Completion.Governor = b.Governor.Child(rewrite.DefaultLimits)
	}
	return b
}

// emit sends e to the budget's sink with Src "core".
func (b Budget) emit(e obs.Event) {
	if b.Sink != nil {
		e.Src = "core"
		b.Sink.Event(e)
	}
}

// Verdict is the outcome of a dual semidecision run.
type Verdict int

const (
	// Unknown means neither semi-procedure reached an answer in budget.
	Unknown Verdict = iota
	// Implied means D logically implies D0.
	Implied
	// FiniteCounterexample means a finite database satisfies D and
	// violates D0.
	FiniteCounterexample
)

func (v Verdict) String() string {
	switch v {
	case Implied:
		return "implied"
	case FiniteCounterexample:
		return "finite-counterexample"
	default:
		return "unknown"
	}
}

// MarshalText renders the verdict as its String form, so JSON documents
// (the serving layer's responses, load reports) carry "implied" rather
// than an opaque integer.
func (v Verdict) MarshalText() ([]byte, error) { return []byte(v.String()), nil }

// UnmarshalText parses the String form back.
func (v *Verdict) UnmarshalText(text []byte) error {
	switch string(text) {
	case "implied":
		*v = Implied
	case "finite-counterexample":
		*v = FiniteCounterexample
	case "unknown":
		*v = Unknown
	default:
		return fmt.Errorf("core: unknown verdict %q", text)
	}
	return nil
}

// PresentationResult reports a presentation-level run of the paper's
// pipeline.
type PresentationResult struct {
	Verdict Verdict
	// Instance is the reduction's (D, D0).
	Instance *reduction.Instance
	// Derivation certifies the goal (Verdict Implied).
	Derivation *words.Derivation
	// ChaseProof is present when the chase confirmed D ⊨ D0 in budget.
	ChaseProof *chase.Result
	// Witness and CounterModel certify Verdict FiniteCounterexample.
	Witness      *semigroup.Interpretation
	CounterModel *reduction.CounterModel
	// GoalRefuted reports that the word-problem layer DEFINITIVELY refuted
	// derivability of A0 = 0 (the equational class of A0 was exhausted, or
	// Knuth–Bendix completion decided the word problem negatively). This
	// rules out certifying implication via Reduction Theorem (A); it does
	// NOT by itself settle the TD question — the reduction maps only
	// derivable instances into IMPL and finitely-refutable ones into FCEX,
	// and the gap between them is where the undecidability lives.
	GoalRefuted bool
}

// Cert assembles the run's serializable certificate from the proof
// objects the pipeline already carries, embedding the ORIGINAL
// presentation (the checker rebuilds the reduction deterministically):
// the equational derivation for Implied, the counter-database plus the
// semigroup witness for FiniteCounterexample. Nil for Unknown.
func (r *PresentationResult) Cert() *cert.Certificate {
	if r == nil || r.Instance == nil || r.Instance.Original == nil {
		return nil
	}
	doc := cert.PresentationProblem(r.Instance.Original)
	switch r.Verdict {
	case Implied:
		return cert.NewDerivation(doc, r.Instance.Pres, r.Derivation)
	case FiniteCounterexample:
		if r.CounterModel != nil {
			return cert.NewFiniteModel(doc, r.CounterModel.Instance, r.Witness)
		}
	}
	return nil
}

// AnalyzePresentation runs the full pipeline on a semigroup presentation:
// build (D, D0), then run the word-problem semi-procedure (whose success
// implies, by Reduction Theorem (A), that D ⊨ D0 — confirmed by the chase
// when the chase budget allows) and the finite-cancellation-model search
// (whose success yields, by (B), a finite counterexample database —
// verified tuple by tuple).
func AnalyzePresentation(p *words.Presentation, b Budget) (*PresentationResult, error) {
	b = b.withSink().withGovernor()
	in, err := reduction.Build(p)
	if err != nil {
		return nil, err
	}
	res := &PresentationResult{Instance: in}
	verdict := func() (*PresentationResult, error) {
		b.emit(obs.Event{Type: obs.EvVerdict, Verdict: res.Verdict.String()})
		return res, nil
	}

	b.emit(obs.Event{Type: obs.EvArmStart, Arm: "derivation"})
	dres := words.DeriveGoal(in.Pres, b.Closure)
	b.emit(obs.Event{Type: obs.EvArmResult, Arm: "derivation", Verdict: dres.Verdict.String()})
	if dres.Verdict == words.Derivable {
		res.Verdict = Implied
		res.Derivation = dres.Derivation
		// Confirm with the chase and validate its proof independently
		// before exposing it.
		cres, err := chase.Implies(in.D, in.D0, b.Chase)
		if err != nil {
			return nil, err
		}
		if cres.Verdict == chase.Implied {
			frozen, as := in.D0.FrozenAntecedents()
			witness := func(inst *relation.Instance) bool {
				return tableau.RowSatisfiable(in.D0.Conclusion(), as, inst)
			}
			if err := chase.ValidateTrace(in.D, frozen, cres.Proof(), witness); err != nil {
				return nil, fmt.Errorf("core: chase proof failed validation: %w", err)
			}
			res.ChaseProof = &cres
		}
		return verdict()
	}

	if dres.Verdict == words.NotDerivable {
		res.GoalRefuted = true
	} else {
		// The closure was inconclusive; try Knuth–Bendix completion, which
		// can refute derivability even when A0's equational class is
		// infinite.
		sys := rewrite.FromPresentation(in.Pres)
		if cres, err := sys.Complete(b.Completion); err == nil && cres.Confluent {
			if decided, _, err := sys.DecideGoal(); err == nil && !decided {
				res.GoalRefuted = true
			}
		}
	}

	b.emit(obs.Event{Type: obs.EvArmStart, Arm: "model-search"})
	sres, err := search.FindCounterModel(p, b.ModelSearch)
	if err != nil {
		return nil, err
	}
	b.emit(obs.Event{Type: obs.EvArmResult, Arm: "model-search", Verdict: sres.Status()})
	if sres.Interpretation != nil {
		cm, err := in.BuildCounterModel(sres.Interpretation)
		if err != nil {
			return nil, err
		}
		if err := in.Verify(cm); err != nil {
			return nil, fmt.Errorf("core: counter-model failed verification: %w", err)
		}
		res.Verdict = FiniteCounterexample
		res.Witness = sres.Interpretation
		res.CounterModel = cm
		return verdict()
	}
	res.Verdict = Unknown
	return verdict()
}

// AnalyzeTM encodes a Turing machine's halting on the given input and runs
// the presentation pipeline: a halting machine yields Verdict Implied.
func AnalyzeTM(m *tm.TM, input []int, b Budget) (*PresentationResult, error) {
	p, err := tm.EncodePresentation(m, input)
	if err != nil {
		return nil, err
	}
	return AnalyzePresentation(p, b)
}
