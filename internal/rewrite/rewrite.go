// Package rewrite implements string rewriting systems over the alphabets of
// package words, with shortlex-oriented rules and bounded Knuth–Bendix
// completion. It is a second, independent solver for the word problem the
// Main Lemma is about:
//
//   - a presentation's equations are oriented into length-reducing (more
//     precisely, shortlex-reducing) rules, so rewriting always terminates;
//   - completion adds rules for unresolved critical pairs; if it reaches a
//     confluent system, the word problem for that presentation is DECIDED
//     by comparing normal forms — undecidability means completion cannot
//     always succeed, and the budget makes that visible;
//   - on presentations where both run to an answer, the rewriting decision
//     and the equational-closure search of package words must agree (they
//     are cross-checked in tests and benchmarked against each other).
//
// Every rule carries its own derivation over the equations of the
// presentation the system was built from, so a positive decision comes
// with its proof (DecideGoal): by Reduction Theorem (A), a derivation of
// A0 = 0 certifies D ⊨ D0 without re-running anything.
package rewrite

import (
	"fmt"
	"sort"
	"strings"

	"templatedep/internal/budget"
	"templatedep/internal/obs"
	"templatedep/internal/words"
)

// Rule is an oriented rewrite rule LHS -> RHS with LHS shortlex-greater.
type Rule struct {
	LHS, RHS words.Word
	// Proof derives LHS to RHS over the equations of the presentation the
	// system was built from: one step for a seed rule of FromPresentation,
	// the chain through its overlap word for a rule adopted by completion.
	// Completion and DecideGoal expand it, so every rule must carry one.
	Proof *words.Derivation
}

// Format renders the rule.
func (r Rule) Format(a *words.Alphabet) string {
	return r.LHS.Format(a) + " -> " + r.RHS.Format(a)
}

// System is a set of shortlex-oriented rewrite rules.
type System struct {
	Alphabet *words.Alphabet
	Rules    []Rule
}

// Orient turns an equation into a rule by shortlex order; trivial equations
// return ok=false.
func Orient(e words.Equation) (Rule, bool) {
	switch e.LHS.Compare(e.RHS) {
	case 0:
		return Rule{}, false
	case 1:
		return Rule{LHS: e.LHS, RHS: e.RHS}, true
	default:
		return Rule{LHS: e.RHS, RHS: e.LHS}, true
	}
}

// FromPresentation orients every equation of p; each rule's proof is the
// one step applying its equation.
func FromPresentation(p *words.Presentation) *System {
	s := &System{Alphabet: p.Alphabet}
	seen := make(map[string]bool)
	for i, e := range p.Equations {
		if r, ok := Orient(e); ok {
			k := r.LHS.Key() + ">" + r.RHS.Key()
			if !seen[k] {
				seen[k] = true
				r.Proof = &words.Derivation{From: r.LHS, To: r.RHS, Steps: []words.Step{
					{Eq: i, Forward: r.LHS.Equal(e.LHS), Result: r.RHS}}}
				s.Rules = append(s.Rules, r)
			}
		}
	}
	return s
}

// RewriteOnce applies the first applicable rule at the leftmost position;
// returns the rewritten word and whether a rewrite happened.
func (s *System) RewriteOnce(w words.Word) (words.Word, bool) {
	next, _, _, ok := rewriteOnce(s.Rules, w)
	return next, ok
}

// rewriteOnce is RewriteOnce over rules, also reporting the index of the
// applied rule and the position it applied at.
func rewriteOnce(rules []Rule, w words.Word) (next words.Word, ri, pos int, ok bool) {
	for i := 0; i < len(w); i++ {
		for ri, r := range rules {
			if i+len(r.LHS) > len(w) {
				continue
			}
			match := true
			for j := range r.LHS {
				if w[i+j] != r.LHS[j] {
					match = false
					break
				}
			}
			if match {
				return w.ReplaceAt(i, len(r.LHS), r.RHS), ri, i, true
			}
		}
	}
	return w, 0, 0, false
}

// NormalForm rewrites w to an irreducible word. Because every rule is
// shortlex-reducing, this always terminates; the internal step limit only
// guards against a non-reducing rule sneaking in through direct Rules
// manipulation.
func (s *System) NormalForm(w words.Word) (words.Word, error) {
	return normalForm(s.Rules, w, nil)
}

// normalForm is NormalForm over rules, appending every rewrite's proof to
// p when p is non-nil.
func normalForm(rules []Rule, w words.Word, p *path) (words.Word, error) {
	limit := 1000 + 100*len(w)*(len(rules)+1)
	cur := w
	for i := 0; i < limit; i++ {
		next, ri, pos, changed := rewriteOnce(rules, cur)
		if !changed {
			return cur, nil
		}
		if p != nil {
			p.apply(rules[ri], pos, cur)
		}
		cur = next
	}
	return nil, fmt.Errorf("rewrite: normal form not reached within %d steps (non-reducing rule?)", limit)
}

// path accumulates the derivation steps of a chain of rewrites, each
// expanded into its rule's proof.
type path []words.Step

// apply appends rule r applied at pos of the word cur: r's proof, shifted
// to pos, with every intermediate word inside cur's context.
func (p *path) apply(r Rule, pos int, cur words.Word) {
	u, v := cur[:pos], cur[pos+len(r.LHS):]
	for _, st := range r.Proof.Steps {
		st.Pos += len(u)
		st.Result = u.Concat(st.Result).Concat(v)
		*p = append(*p, st)
	}
}

// reversed returns the steps of a derivation from `from`, read backwards:
// the order reverses and each step flips direction; positions stay.
func reversed(from words.Word, steps []words.Step) []words.Step {
	out := make([]words.Step, len(steps))
	prev := from
	for i, st := range steps {
		out[len(steps)-1-i] = words.Step{Eq: st.Eq, Pos: st.Pos, Forward: !st.Forward, Result: prev}
		prev = st.Result
	}
	return out
}

// CriticalPair is an unresolved critical pair: the distinct normal forms
// X and Y of two one-step rewrites of one overlap word.
type CriticalPair struct {
	X, Y words.Word
	// overlap rewrites towards X by rule[0] at pos[0] and towards Y by
	// rule[1] at pos[1], indices into the rules the pair was found against.
	overlap   words.Word
	rule, pos [2]int
}

// proof derives X = Y (or Y = X, when from is Y) over the source
// presentation through the overlap word: the reverse of (overlap → x →*
// X), then (overlap → y →* Y). rules must be the ones the pair was found
// against.
func (cp CriticalPair) proof(rules []Rule, from words.Word) *words.Derivation {
	var sides [2]path
	for i := range sides {
		r, pos := rules[cp.rule[i]], cp.pos[i]
		sides[i].apply(r, pos, cp.overlap)
		if _, err := normalForm(rules, cp.overlap.ReplaceAt(pos, len(r.LHS), r.RHS), &sides[i]); err != nil {
			return nil
		}
	}
	x, y := cp.X, cp.Y
	if !from.Equal(x) {
		sides[0], sides[1], x, y = sides[1], sides[0], y, x
	}
	return &words.Derivation{From: x, To: y, Steps: append(reversed(cp.overlap, sides[0]), sides[1]...)}
}

// CriticalPairs returns the unresolved critical pairs of the system: pairs
// of distinct words both reachable in one step from a common superposition
// of two rule left sides, whose normal forms differ.
func (s *System) CriticalPairs() ([]CriticalPair, error) {
	var out []CriticalPair
	add := func(overlap, x, y words.Word, rule, pos [2]int) error {
		nx, err := s.NormalForm(x)
		if err != nil {
			return err
		}
		ny, err := s.NormalForm(y)
		if err != nil {
			return err
		}
		if !nx.Equal(ny) {
			out = append(out, CriticalPair{X: nx, Y: ny, overlap: overlap, rule: rule, pos: pos})
		}
		return nil
	}
	for i1, r1 := range s.Rules {
		for i2, r2 := range s.Rules {
			// Overlap type 1: r2.LHS occurs inside r1.LHS.
			for _, pos := range r1.LHS.Occurrences(r2.LHS) {
				x := r1.RHS
				y := r1.LHS.ReplaceAt(pos, len(r2.LHS), r2.RHS)
				if err := add(r1.LHS, x, y, [2]int{i1, i2}, [2]int{0, pos}); err != nil {
					return nil, err
				}
			}
			// Overlap type 2: a proper suffix of r1.LHS is a proper prefix
			// of r2.LHS.
			for k := 1; k < len(r1.LHS) && k < len(r2.LHS); k++ {
				ok := true
				for j := 0; j < k; j++ {
					if r1.LHS[len(r1.LHS)-k+j] != r2.LHS[j] {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				// Superposition: r1.LHS + r2.LHS[k:].
				super := r1.LHS.Concat(r2.LHS[k:])
				x := r1.RHS.Concat(r2.LHS[k:])
				y := super[:len(r1.LHS)-k].Concat(r2.RHS)
				if err := add(super, x, y, [2]int{i1, i2}, [2]int{0, len(r1.LHS) - k}); err != nil {
					return nil, err
				}
			}
		}
	}
	return out, nil
}

// CompletionOptions bounds Knuth–Bendix completion.
type CompletionOptions struct {
	// Governor bounds completion: its rules meter caps the rule count, its
	// rounds meter caps completion sweeps, and its context is checked once
	// per sweep. Nil resolves to DefaultLimits.
	Governor *budget.Governor
	// Sink receives one rule_added event per oriented rule adopted from an
	// unresolved critical pair, and the final verdict ("confluent" or
	// "diverged"). Nil disables emission. See docs/OBSERVABILITY.md.
	Sink obs.Sink
}

// DefaultLimits bound an ungoverned completion: 500 rules across 100
// sweeps.
var DefaultLimits = budget.Limits{Rules: 500, Rounds: 100}

// CompletionResult reports how completion ended.
type CompletionResult struct {
	// Confluent is true when no unresolved critical pairs remain: the
	// system decides its word problem.
	Confluent bool
	// Iterations is the number of sweeps performed.
	Iterations int
	// Budget reports how the governor cut completion short (rule or sweep
	// budget, cancellation); zero (ok) with Confluent false never happens
	// — an ok non-confluent return is reported as exhausted sweeps.
	Budget budget.Outcome
}

// Complete runs Knuth–Bendix completion in place, adding oriented rules for
// unresolved critical pairs until none remain or budgets run out. A budget
// stop is not an error: it is reported in CompletionResult.Budget (the
// system simply diverged within bounds, which undecidability guarantees
// must sometimes happen).
func (s *System) Complete(opt CompletionOptions) (CompletionResult, error) {
	g := budget.Resolve(opt.Governor, DefaultLimits)
	res := CompletionResult{}
	verdict := func(v string) {
		if opt.Sink != nil {
			if res.Budget.Stopped() {
				typ := obs.EvBudgetExhausted
				if res.Budget.Code != budget.CodeExhausted {
					typ = obs.EvCancelled
				}
				opt.Sink.Event(obs.Event{Type: typ, Src: "rewrite",
					Round: res.Iterations, Resource: res.Budget.Reason()})
			}
			opt.Sink.Event(obs.Event{Type: obs.EvVerdict, Src: "rewrite",
				Verdict: v, Round: res.Iterations, Rules: len(s.Rules)})
		}
	}
	// Seed rules count against the rule meter, so the cap is on the total
	// system size, as it was when it capped len(s.Rules) directly.
	g.Add(budget.Rules, len(s.Rules))
	for it := 1; ; it++ {
		if o := g.Charge(budget.Rounds, 1); o.Stopped() {
			res.Budget = o
			verdict("diverged")
			return res, nil
		}
		res.Iterations = it
		pairs, err := s.CriticalPairs()
		if err != nil {
			return res, err
		}
		if len(pairs) == 0 {
			res.Confluent = true
			s.simplify()
			verdict("confluent")
			return res, nil
		}
		// The pairs were found against the sweep's starting rules; adopted
		// rules are appended behind them, so that prefix stays intact for
		// deriving each adopted rule's proof.
		found := s.Rules
		added := 0
		for _, p := range pairs {
			r, ok := Orient(words.Eq(p.X, p.Y))
			if !ok {
				continue
			}
			if o := g.Charge(budget.Rules, 1); o.Stopped() {
				res.Budget = o
				verdict("diverged")
				return res, nil
			}
			r.Proof = p.proof(found, r.LHS)
			s.Rules = append(s.Rules, r)
			added++
			if opt.Sink != nil {
				opt.Sink.Event(obs.Event{Type: obs.EvRuleAdded, Src: "rewrite",
					Iter: it, Rules: len(s.Rules)})
			}
		}
		if added == 0 {
			// All pairs were trivial after normalization races; re-check.
			res.Confluent = true
			s.simplify()
			verdict("confluent")
			return res, nil
		}
	}
}

// simplify removes rules whose left side is reducible by the others and
// normalizes right sides; it keeps the decision procedure but shrinks it.
func (s *System) simplify() {
	sort.Slice(s.Rules, func(i, j int) bool {
		if c := s.Rules[i].LHS.Compare(s.Rules[j].LHS); c != 0 {
			return c < 0
		}
		return s.Rules[i].RHS.Compare(s.Rules[j].RHS) < 0
	})
	var kept []Rule
	for i, r := range s.Rules {
		others := &System{Alphabet: s.Alphabet}
		others.Rules = append(others.Rules, s.Rules[:i]...)
		others.Rules = append(others.Rules, s.Rules[i+1:]...)
		if _, reducible := others.RewriteOnce(r.LHS); reducible {
			// Check the rule is redundant: both sides joinable without it.
			nl, errL := others.NormalForm(r.LHS)
			nr, errR := others.NormalForm(r.RHS)
			if errL == nil && errR == nil && nl.Equal(nr) {
				s.Rules = append(s.Rules[:i:i], s.Rules[i+1:]...)
				s.simplify()
				return
			}
		}
		kept = append(kept, r)
	}
	s.Rules = kept
}

// DecideGoal decides (when the system is confluent) whether A0 = 0 holds.
// When it does, proof derives A0 →* n ←* 0 over the source presentation,
// n the common normal form.
func (s *System) DecideGoal() (decided bool, proof *words.Derivation, err error) {
	a0, zero := words.W(s.Alphabet.A0()), words.W(s.Alphabet.Zero())
	var left, right path
	na, err := normalForm(s.Rules, a0, &left)
	if err != nil {
		return false, nil, err
	}
	nz, err := normalForm(s.Rules, zero, &right)
	if err != nil || !na.Equal(nz) {
		return false, nil, err
	}
	return true, &words.Derivation{From: a0, To: zero, Steps: append(left, reversed(zero, right)...)}, nil
}

// Format renders the system, one rule per line.
func (s *System) Format() string {
	var b strings.Builder
	for _, r := range s.Rules {
		b.WriteString(r.Format(s.Alphabet))
		b.WriteByte('\n')
	}
	return b.String()
}
