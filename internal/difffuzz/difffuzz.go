// Package difffuzz is the differential fuzzing harness: it runs every
// corpus instance (internal/corpus) through all applicable engines under
// a matched governor and checks the cross-engine invariants:
//
//   - verdict agreement: two engines given the same meter limits may
//     disagree only through "unknown" — definitive "implied" vs
//     definitive "finite-counterexample" is a soundness bug in one of
//     them;
//   - oracle agreement: on the decidable fragment, every definitive
//     engine verdict must match the independent axiomatic decider;
//   - certification: every certificate any engine produces must survive
//     an Encode/Decode round trip and pass cert.Check, and every
//     definitive portfolio verdict, like every definitive consensus, must
//     ship one;
//   - canon stability: the canonical key of an instance must be
//     invariant under the renamings and reorderings the canon layer
//     documents (symbol renaming, equation order and orientation for
//     presentations; dependency order, duplicates, attribute names, and
//     variable renumbering for TD instances).
//
// Every case emits a fuzz_case event, and every violated invariant a
// fuzz_disagree event, on Options.Sink (see docs/OBSERVABILITY.md).
package difffuzz

import (
	"fmt"
	"sync"
	"time"

	"templatedep/internal/budget"
	"templatedep/internal/cert"
	"templatedep/internal/chase"
	"templatedep/internal/core"
	"templatedep/internal/corpus"
	"templatedep/internal/eid"
	"templatedep/internal/finitemodel"
	"templatedep/internal/obs"
	"templatedep/internal/portfolio"
	"templatedep/internal/reduction"
	"templatedep/internal/rewrite"
	"templatedep/internal/search"
	"templatedep/internal/words"
)

// DefaultLimits are the matched meter classes every engine runs under:
// each engine gets a fresh governor drawing the limits for the meters it
// uses (rounds/tuples for the chases, nodes for the searches, words for
// the closure, rules for completion).
// The tuple cap is deliberately modest: a divergent embedded-TD chase
// joins every antecedent row against the whole instance each round, so
// runtime grows quadratically in the cap — 2500 keeps a cap-out under
// tens of milliseconds while leaving room for every terminating chase
// the corpus generates.
var DefaultLimits = budget.Limits{
	Rounds: 24,
	Tuples: 2500,
	Nodes:  150000,
	Words:  40000,
	Rules:  150,
}

// Options parameterizes a differential run.
type Options struct {
	// Limits are the matched meter classes; zero fields take
	// DefaultLimits values.
	Limits budget.Limits
	// Sizes is the finite-db enumerator's instance-size window (TD
	// instances); zero means {1, 2}.
	Sizes budget.Range
	// Orders is the counter-model search's semigroup-order window
	// (presentation instances); zero means {2, 4}.
	Orders budget.Range
	// LengthCap bounds the word length explored by equational closure;
	// without it TM-derived presentations generate unboundedly long words
	// and the closure exhausts memory before the Words meter bites.
	// <= 0 means 12.
	LengthCap int
	// Mutations is the number of canon-stability mutations per instance;
	// <= 0 means 3.
	Mutations int
	// Seed seeds the mutation streams (independent of the corpus seed).
	Seed int64
	// Workers parallelizes cases; <= 0 means 1. Verdicts and
	// disagreements are independent of Workers (results land by index);
	// per-family timings are wall-clock and therefore not.
	Workers int
	// Sink receives fuzz_case / fuzz_disagree events (Src "difffuzz").
	Sink obs.Sink
}

func (opt Options) withDefaults() Options {
	if opt.Limits.Rounds <= 0 {
		opt.Limits.Rounds = DefaultLimits.Rounds
	}
	if opt.Limits.Tuples <= 0 {
		opt.Limits.Tuples = DefaultLimits.Tuples
	}
	if opt.Limits.Nodes <= 0 {
		opt.Limits.Nodes = DefaultLimits.Nodes
	}
	if opt.Limits.Words <= 0 {
		opt.Limits.Words = DefaultLimits.Words
	}
	if opt.Limits.Rules <= 0 {
		opt.Limits.Rules = DefaultLimits.Rules
	}
	if opt.Sizes.Hi <= 0 {
		// Up to 4 tuples: some not-implied independence atoms have no
		// 2-tuple counterexample (the oracle family must reach definitive
		// verdicts, and the node meter still bounds the search).
		opt.Sizes = budget.Range{Lo: 1, Hi: 4}
	}
	if opt.Orders.Hi <= 0 {
		opt.Orders = budget.Range{Lo: 2, Hi: 4}
	}
	if opt.LengthCap <= 0 {
		opt.LengthCap = 12
	}
	if opt.Mutations <= 0 {
		opt.Mutations = 3
	}
	if opt.Workers <= 0 {
		opt.Workers = 1
	}
	return opt
}

// EngineRun is one engine's outcome on one instance.
type EngineRun struct {
	Engine  string `json:"engine"`
	Verdict string `json:"verdict"`
	NS      int64  `json:"ns"`
	// Certified reports the engine produced a certificate that passed
	// the round-trip + cert.Check gate.
	Certified bool `json:"certified,omitempty"`
}

// Case is one instance's differential outcome.
type Case struct {
	ID     string `json:"id"`
	Family string `json:"family"`
	Kind   string `json:"kind"`
	Label  string `json:"label"`
	// Verdict is the consensus definitive verdict ("unknown" when no
	// engine was definitive).
	Verdict string `json:"verdict"`
	// Oracle is the fragment ground truth ("" outside FamilyOracle).
	Oracle  string      `json:"oracle,omitempty"`
	Engines []EngineRun `json:"engines"`
	// Problems lists the violated invariants, prefixed with the
	// invariant name ("verdict:", "oracle:", "cert:", "canon:").
	Problems []string `json:"problems,omitempty"`
	// NS is the case's total engine wall time.
	NS int64 `json:"ns"`
}

// Result is a full differential run.
type Result struct {
	Cases []Case
	// Disagreements flattens every case's Problems, prefixed with the
	// case ID. The gate requires it empty.
	Disagreements []string
}

// Run executes the differential harness over instances.
func Run(instances []corpus.Instance, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	cases := make([]Case, len(instances))
	errs := make([]error, len(instances))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < opt.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				cases[i], errs[i] = runCase(instances[i], i, opt)
			}
		}()
	}
	for i := range instances {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	res := &Result{Cases: cases}
	for _, c := range cases {
		for _, p := range c.Problems {
			res.Disagreements = append(res.Disagreements, c.ID+": "+p)
		}
	}
	return res, nil
}

// engineOut is one engine run before invariant checking.
type engineOut struct {
	name    string
	verdict string
	cert    *cert.Certificate
	ns      int64
}

// Fresh governors per engine per instance: governors meter cumulatively,
// so reuse across runs would make later engines run on an exhausted
// budget and measure nothing.
func gov(l budget.Limits) *budget.Governor { return budget.New(nil, l) }

func (opt Options) chaseOptions() chase.Options {
	return chase.Options{
		Governor: gov(budget.Limits{Rounds: opt.Limits.Rounds, Tuples: opt.Limits.Tuples}),
	}
}

func (opt Options) eidOptions() eid.Options {
	return eid.Options{Governor: gov(budget.Limits{Rounds: opt.Limits.Rounds, Tuples: opt.Limits.Tuples})}
}

// Presentation reductions have wide schemas (a TM encoding builds ~170
// dependencies), so a full chase budget explodes in the first join. The
// portfolio's chase arm gets a token budget there — the derivation,
// completion, and model-search arms carry presentation instances, and the
// chase arm simply retires at its ceiling.
func (opt Options) presChaseOptions() chase.Options {
	return chase.Options{Governor: gov(budget.Limits{Rounds: 1, Tuples: 50})}
}

func (opt Options) finiteDBOptions() finitemodel.Options {
	return finitemodel.Options{Sizes: opt.Sizes, Governor: gov(budget.Limits{Nodes: opt.Limits.Nodes})}
}

func (opt Options) modelSearchOptions() search.Options {
	return search.Options{Orders: opt.Orders, Governor: gov(budget.Limits{Nodes: opt.Limits.Nodes})}
}

func (opt Options) closureOptions() words.ClosureOptions {
	return words.ClosureOptions{
		Governor:  gov(budget.Limits{Words: opt.Limits.Words}),
		LengthCap: opt.LengthCap,
	}
}

func (opt Options) completionOptions() rewrite.CompletionOptions {
	return rewrite.CompletionOptions{Governor: gov(budget.Limits{Rules: opt.Limits.Rules, Rounds: 25})}
}

func chaseVerdictString(v chase.Verdict) string {
	switch v {
	case chase.Implied:
		return "implied"
	case chase.NotImplied:
		// A TD chase fixpoint without the conclusion IS a finite
		// counterexample, so the engines share one verdict vocabulary.
		return "finite-counterexample"
	}
	return "unknown"
}

func eidVerdictString(v eid.Verdict) string {
	switch v {
	case eid.Implied:
		return "implied"
	case eid.NotImplied:
		return "finite-counterexample"
	}
	return "unknown"
}

// runTD runs the TD-level engine set.
func runTD(in corpus.Instance, opt Options) ([]engineOut, error) {
	var outs []engineOut
	run := func(name string, f func() (string, *cert.Certificate, error)) error {
		start := time.Now()
		verdict, c, err := f()
		if err != nil {
			return fmt.Errorf("difffuzz: %s: engine %s: %w", in.ID, name, err)
		}
		outs = append(outs, engineOut{name: name, verdict: verdict, cert: c, ns: time.Since(start).Nanoseconds()})
		return nil
	}
	if err := run("chase", func() (string, *cert.Certificate, error) {
		res, err := chase.Implies(in.Deps, in.Goal, opt.chaseOptions())
		return chaseVerdictString(res.Verdict), nil, err
	}); err != nil {
		return nil, err
	}
	if err := run("eid", func() (string, *cert.Certificate, error) {
		eids := make([]*eid.EID, len(in.Deps))
		for i, d := range in.Deps {
			eids[i] = eid.FromTD(d)
		}
		res, err := eid.Implies(eids, eid.FromTD(in.Goal), opt.eidOptions())
		return eidVerdictString(res.Verdict), nil, err
	}); err != nil {
		return nil, err
	}
	if err := run("finite-db", func() (string, *cert.Certificate, error) {
		res, err := finitemodel.FindCounterexample(in.Deps, in.Goal, opt.finiteDBOptions())
		if err != nil {
			return "", nil, err
		}
		if res.Instance != nil {
			return "finite-counterexample", nil, nil
		}
		return "unknown", nil, nil
	}); err != nil {
		return nil, err
	}
	// portfolio is the certificate producer for TD instances: a definitive
	// verdict carries the counterexample database for FCEX and, for
	// Implied, the winning chase lease's own chase sequence.
	if err := run("portfolio", func() (string, *cert.Certificate, error) {
		res, err := portfolio.Infer(in.Deps, in.Goal, core.Budget{
			Chase:    opt.chaseOptions(),
			FiniteDB: opt.finiteDBOptions(),
		})
		if err != nil {
			return "", nil, err
		}
		return res.Verdict.String(), res.Cert(), nil
	}); err != nil {
		return nil, err
	}
	return outs, nil
}

// runPresentation runs the presentation-level engine set.
func runPresentation(in corpus.Instance, opt Options) ([]engineOut, error) {
	var outs []engineOut
	run := func(name string, f func() (string, *cert.Certificate, error)) error {
		start := time.Now()
		verdict, c, err := f()
		if err != nil {
			return fmt.Errorf("difffuzz: %s: engine %s: %w", in.ID, name, err)
		}
		outs = append(outs, engineOut{name: name, verdict: verdict, cert: c, ns: time.Since(start).Nanoseconds()})
		return nil
	}
	// The closure and the model search run standalone, as the references
	// the portfolio's derivation and model-search arms are checked against
	// (as eid.Chase and the standalone finite-db are on TD instances); the
	// portfolio certifies.
	if err := run("derivation", func() (string, *cert.Certificate, error) {
		norm, err := reduction.Normalize(in.Pres)
		if err != nil {
			return "", nil, err
		}
		if words.DeriveGoal(norm, opt.closureOptions()).Verdict == words.Derivable {
			return "implied", nil, nil
		}
		return "unknown", nil, nil
	}); err != nil {
		return nil, err
	}
	if err := run("model-search", func() (string, *cert.Certificate, error) {
		res, err := search.FindCounterModel(in.Pres, opt.modelSearchOptions())
		if err != nil {
			return "", nil, err
		}
		if res.Interpretation != nil {
			return "finite-counterexample", nil, nil
		}
		return "unknown", nil, nil
	}); err != nil {
		return nil, err
	}
	if err := run("portfolio", func() (string, *cert.Certificate, error) {
		res, err := portfolio.AnalyzePresentation(in.Pres, core.Budget{
			Chase:       opt.presChaseOptions(),
			Closure:     opt.closureOptions(),
			ModelSearch: opt.modelSearchOptions(),
			Completion:  opt.completionOptions(),
		})
		if err != nil {
			return "", nil, err
		}
		return res.Verdict.String(), res.Cert(), nil
	}); err != nil {
		return nil, err
	}
	return outs, nil
}

// definitive reports whether v is a definitive verdict.
func definitive(v string) bool { return v == "implied" || v == "finite-counterexample" }

// runCase runs instance i's engine set and checks every invariant.
func runCase(in corpus.Instance, i int, opt Options) (Case, error) {
	var (
		outs []engineOut
		err  error
	)
	if in.Kind == corpus.KindPresentation {
		outs, err = runPresentation(in, opt)
	} else {
		outs, err = runTD(in, opt)
	}
	if err != nil {
		return Case{}, err
	}
	c := Case{
		ID:      in.ID,
		Family:  string(in.Family),
		Kind:    string(in.Kind),
		Label:   in.Label,
		Verdict: "unknown",
		Oracle:  string(in.Oracle),
	}
	problem := func(kind, format string, args ...any) {
		detail := fmt.Sprintf(format, args...)
		c.Problems = append(c.Problems, kind+": "+detail)
		if opt.Sink != nil {
			opt.Sink.Event(obs.Event{
				Type: obs.EvFuzzDisagree, Src: "difffuzz",
				Key: in.ID, Source: string(in.Family), Arm: kind, Verdict: detail,
			})
		}
	}

	// Verdict agreement: definitive verdicts must be pairwise equal, and
	// the first one is the consensus.
	for k := range outs {
		c.NS += outs[k].ns
		if !definitive(outs[k].verdict) {
			continue
		}
		if c.Verdict == "unknown" {
			c.Verdict = outs[k].verdict
		} else if outs[k].verdict != c.Verdict {
			problem("verdict", "engine %s says %q but an earlier engine said %q",
				outs[k].name, outs[k].verdict, c.Verdict)
		}
	}

	// Oracle agreement: directional — an engine may time out into
	// "unknown", but a definitive verdict must match the ground truth.
	if in.Oracle != corpus.OracleNone {
		want := "implied"
		if in.Oracle == corpus.OracleNotImplied {
			want = "finite-counterexample"
		}
		for _, o := range outs {
			if definitive(o.verdict) && o.verdict != want {
				problem("oracle", "engine %s says %q but the fragment decider says %q (%s)",
					o.name, o.verdict, want, in.Label)
			}
		}
	}

	// Certification: every produced certificate must round-trip and pass
	// the independent checker, every definitive portfolio verdict must
	// ship one, and a consensus definitive verdict must ship at least one.
	certified := false
	for _, o := range outs {
		run := EngineRun{Engine: o.name, Verdict: o.verdict, NS: o.ns}
		if o.cert != nil {
			if err := checkCert(o.cert); err != nil {
				problem("cert", "engine %s certificate rejected: %v", o.name, err)
			} else {
				run.Certified = true
				certified = true
			}
		} else if o.name == "portfolio" && definitive(o.verdict) {
			problem("cert", "portfolio verdict %q shipped no certificate", o.verdict)
		}
		c.Engines = append(c.Engines, run)
	}
	if definitive(c.Verdict) && !certified {
		problem("cert", "consensus verdict %q shipped no checkable certificate", c.Verdict)
	}

	// Canon stability under the documented invariances.
	if err := checkCanon(in, i, opt, problem); err != nil {
		return Case{}, err
	}

	if opt.Sink != nil {
		opt.Sink.Event(obs.Event{
			Type: obs.EvFuzzCase, Src: "difffuzz",
			Key: in.ID, Source: string(in.Family), Verdict: c.Verdict, N: len(outs),
		})
	}
	return c, nil
}

// checkCert round-trips c through its wire form and verifies the decoded
// copy with the standalone checker.
func checkCert(c *cert.Certificate) error {
	data, err := c.Encode()
	if err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	dec, err := cert.Decode(data)
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	return cert.Check(dec)
}
