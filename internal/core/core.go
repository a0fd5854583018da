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
// be done, and what this package does, is run a semi-procedure for each set
// side by side under explicit budgets:
//
//   - the chase semidecides IMPL (a proof trace certifies membership);
//   - finite-database / finite-semigroup search semidecides FCEX (a
//     counterexample certifies membership);
//   - on instances in neither set — they exist, e.g. the reduction of
//     {A0·A0 = A0} — both procedures run forever, and a budgeted run
//     reports Unknown. Undecidability guarantees that no budget heuristic
//     can eliminate the Unknown outcome; this library makes the phenomenon
//     observable rather than pretending to decide it.
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
	"templatedep/internal/td"
	"templatedep/internal/tm"
	"templatedep/internal/words"
)

// Budget bundles the budgets of every sub-procedure.
type Budget struct {
	Chase       chase.Options
	Closure     words.ClosureOptions
	ModelSearch search.Options
	FiniteDB    finitemodel.Options
	// Governor is the run-wide governor: its context (cancellation,
	// deadline) is inherited by every sub-procedure whose options do not
	// already carry a governor, via child governors metering under each
	// engine's default limits. One SIGINT or deadline therefore stops the
	// whole dual run, while each arm keeps its own meters.
	Governor *budget.Governor
	// Sink receives the front-end's own events (which arm is running,
	// arm outcomes, deepening rounds, the verdict) and is propagated to
	// every sub-procedure whose options do not already carry a sink, so
	// one sink observes the whole dual run. See docs/OBSERVABILITY.md.
	Sink obs.Sink
	// Certify makes every definitive TD-level verdict carry a serializable
	// certificate (Cert() on the result): chase tracing is forced on so an
	// Implied verdict has a replayable trace. Off by default — tracing
	// costs allocations on the hot path, so benchmarks stay unchanged.
	Certify bool
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
		if b.FiniteDB.Sink == nil {
			b.FiniteDB.Sink = b.Sink
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
	if b.FiniteDB.Governor == nil {
		b.FiniteDB.Governor = b.Governor.Child(finitemodel.DefaultLimits)
	}
	return b
}

// completionGovernor builds the governor for the bounded Knuth–Bendix
// fallback: tighter than rewrite.DefaultLimits because completion is a
// side-check here, inheriting the run's context when one exists.
func (b Budget) completionGovernor() *budget.Governor {
	l := budget.Limits{Rules: 200, Rounds: 25}
	if b.Governor != nil {
		return b.Governor.Child(l)
	}
	return budget.New(nil, l)
}

// emit sends e to the budget's sink with Src "core".
func (b Budget) emit(e obs.Event) {
	if b.Sink != nil {
		e.Src = "core"
		b.Sink.Event(e)
	}
}

// DefaultBudget returns moderate budgets suitable for interactive use.
func DefaultBudget() Budget {
	return Budget{
		Chase:       chase.DefaultOptions(),
		Closure:     words.DefaultClosureOptions(),
		ModelSearch: search.DefaultOptions(),
		FiniteDB:    finitemodel.DefaultOptions(),
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

// InferenceResult reports a TD-level dual semidecision run.
type InferenceResult struct {
	Verdict Verdict
	// Chase holds the chase run (its trace is the proof when Implied; its
	// fixpoint is the counterexample when the chase itself refuted).
	Chase *chase.Result
	// Counterexample is the finite database violating D0, when found
	// (either the chase fixpoint or the enumerator's witness).
	Counterexample *relation.Instance

	cert *cert.Certificate
}

// Cert returns the run's serializable certificate: non-nil for every
// definitive verdict of a run with Budget.Certify set (and for portfolio
// runs whose winning arm's verdict could be certified), nil for Unknown
// and for uncertified runs.
func (r InferenceResult) Cert() *cert.Certificate { return r.cert }

// WithCert returns a copy of r carrying c; it is how layers that rebuild
// an InferenceResult from parts (the portfolio front-end, the CLIs'
// presentation adapter) thread a certificate through without exporting
// the field itself.
func (r InferenceResult) WithCert(c *cert.Certificate) InferenceResult {
	r.cert = c
	return r
}

// Infer runs the dual semidecision for an arbitrary TD instance: the chase
// for IMPL and, if the chase is inconclusive, the finite-database
// enumerator for FCEX.
func Infer(deps []*td.TD, d0 *td.TD, b Budget) (InferenceResult, error) {
	b = b.withSink().withGovernor()
	if b.Certify && !b.Chase.CaptureState {
		// Force tracing so an Implied verdict has a replayable proof.
		// Snapshot-capturing runs (the serving layer's warm-state cache)
		// stay untraced — tracing makes snapshots ineligible — and
		// certify by replay instead.
		b.Chase.Trace = true
	}
	doc := func() cert.Problem { return cert.TDProblem(d0.Schema(), deps, d0) }
	// certImplied turns an Implied chase result into a certificate: its own
	// trace when the run recorded a complete one, a deterministic traced
	// replay under the same budget class (with margin) otherwise. The
	// replay shares the run-wide governor's context, so a cancelled run
	// keeps its verdict and drops the certificate.
	certImplied := func(cres *chase.Result) *cert.Certificate {
		if len(cres.Trace) > 0 && !cres.WarmStarted {
			return cert.NewChase(doc(), cres.Trace)
		}
		var lim budget.Limits
		if b.Chase.Governor != nil {
			l := b.Chase.Governor.Limits()
			if l.Rounds > 0 {
				lim.Rounds = 2*l.Rounds + 4
			}
			if l.Tuples > 0 {
				lim.Tuples = 4*l.Tuples + 1024
			}
		}
		ctx := budget.Resolve(b.Governor, budget.Limits{}).Context()
		return cert.CertifyImplied(ctx, doc(), deps, d0, lim)
	}
	verdict := func(res InferenceResult) (InferenceResult, error) {
		b.emit(obs.Event{Type: obs.EvVerdict, Verdict: res.Verdict.String()})
		return res, nil
	}
	b.emit(obs.Event{Type: obs.EvArmStart, Arm: "chase"})
	cres, err := chase.Implies(deps, d0, b.Chase)
	if err != nil {
		return InferenceResult{}, err
	}
	b.emit(obs.Event{Type: obs.EvArmResult, Arm: "chase", Verdict: cres.Verdict.String()})
	switch cres.Verdict {
	case chase.Implied:
		res := InferenceResult{Verdict: Implied, Chase: &cres}
		if b.Certify {
			res.cert = certImplied(&cres)
		}
		return verdict(res)
	case chase.NotImplied:
		res := InferenceResult{Verdict: FiniteCounterexample, Chase: &cres, Counterexample: cres.Instance}
		if b.Certify {
			res.cert = cert.NewFiniteModel(doc(), cres.Instance, nil)
		}
		return verdict(res)
	}
	b.emit(obs.Event{Type: obs.EvArmStart, Arm: "finite-db"})
	fres, err := finitemodel.FindCounterexample(deps, d0, b.FiniteDB)
	if err != nil {
		return InferenceResult{}, err
	}
	b.emit(obs.Event{Type: obs.EvArmResult, Arm: "finite-db", Verdict: fres.Status()})
	if fres.Instance != nil {
		res := InferenceResult{Verdict: FiniteCounterexample, Chase: &cres, Counterexample: fres.Instance}
		if b.Certify {
			res.cert = cert.NewFiniteModel(doc(), fres.Instance, nil)
		}
		return verdict(res)
	}
	return verdict(InferenceResult{Verdict: Unknown, Chase: &cres})
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
// an equational derivation or a chase trace for Implied, the
// counter-database plus the semigroup witness for FiniteCounterexample.
// Nil for Unknown, and for definitive verdicts whose run kept no proof
// object (an untraced chase win — certify those with cert.CertifyImplied).
func (r *PresentationResult) Cert() *cert.Certificate {
	if r == nil || r.Instance == nil || r.Instance.Original == nil {
		return nil
	}
	doc := cert.PresentationProblem(r.Instance.Original)
	switch r.Verdict {
	case Implied:
		if r.Derivation != nil {
			return cert.NewDerivation(doc, r.Instance.Pres, r.Derivation)
		}
		if r.ChaseProof != nil {
			return cert.NewChase(doc, r.ChaseProof.Trace)
		}
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
		// Confirm with a traced chase run and validate the trace
		// independently before exposing it as a proof.
		cres, err := chase.ProveImplies(in.D, in.D0, b.Chase)
		if err != nil {
			return nil, err
		}
		if cres.Verdict == chase.Implied {
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
		copt := rewrite.CompletionOptions{Governor: b.completionGovernor(), Sink: b.Sink}
		if cres, err := sys.Complete(copt); err == nil && cres.Confluent {
			if decided, err := sys.DecideGoal(); err == nil && !decided {
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
