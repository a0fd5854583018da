// Package core holds the vocabulary of the paper's dual semidecision
// picture that every front-end shares.
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
// shares with every caller: Budget, the one configuration of a run, and
// Verdict.
package core

import (
	"fmt"

	"templatedep/internal/budget"
	"templatedep/internal/chase"
	"templatedep/internal/finitemodel"
	"templatedep/internal/obs"
	"templatedep/internal/rewrite"
	"templatedep/internal/search"
	"templatedep/internal/words"
)

// Budget is the one configuration of an inference run. Its zero value is
// the default every front-end runs: each engine under its DefaultLimits
// and default windows, no parent pool, no sink.
//
// The adaptive portfolio (internal/portfolio) reads every field: a
// governor in an engine's options sets that arm's hard ceilings, and the
// portfolio swaps it for per-lease children. No setting is needed to
// certify: every definitive verdict keeps the proof its winning engine
// found, and the portfolio's Result.Cert serializes it on demand.
type Budget struct {
	Chase chase.Options
	// Closure bounds the derivation arm: its governor sets the words
	// ceiling, and LengthCap the widest word-length window the arm opens
	// to (zero or less means 12).
	Closure     words.ClosureOptions
	ModelSearch search.Options
	FiniteDB    finitemodel.Options
	// Completion bounds Knuth–Bendix completion, the portfolio's kb arm.
	// Every front-end, tdserve included, leaves it at
	// rewrite.DefaultLimits.
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
