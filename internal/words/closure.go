package words

import (
	"fmt"

	"templatedep/internal/budget"
)

// The equational-closure solver is a semidecision procedure for the uniform
// word problem: given a presentation E and words u, v, decide whether u = v
// is derivable from E (equivalently, by Birkhoff's theorem for semigroups,
// whether u = v holds in every S-generated semigroup satisfying E).
//
// The procedure runs a breadth-first search over the words reachable from u
// by single-occurrence replacements x -> y or y -> x for equations x = y of
// E. If v is reached, u = v is derivable and an explicit derivation (the
// sequence u = w0, w1, ..., wm = v of the paper's proof of Reduction Theorem
// part (A)) is returned. If the whole reachable class is exhausted without
// meeting v, u = v is NOT derivable — a definitive negative answer. If the
// budget runs out first, the answer is Unknown (the problem is undecidable
// in general, so a budget cut is unavoidable).

// Verdict is the three-valued outcome of a budgeted semidecision run.
type Verdict int

const (
	// Unknown means the search exhausted its budget without an answer.
	Unknown Verdict = iota
	// Derivable means the equation was proved; a Derivation witnesses it.
	Derivable
	// NotDerivable means the full equivalence class was enumerated and the
	// target is not in it: a definitive refutation.
	NotDerivable
)

func (v Verdict) String() string {
	switch v {
	case Derivable:
		return "derivable"
	case NotDerivable:
		return "not-derivable"
	default:
		return "unknown"
	}
}

// ClosureOptions bounds the breadth-first closure search.
type ClosureOptions struct {
	// Governor bounds the search: its words meter caps the number of
	// distinct words enumerated, and its context is checked once per
	// dequeued word, so cancellation latency is one BFS expansion. Nil
	// resolves to DefaultLimits.
	Governor *budget.Governor
	// LengthCap caps the length of words explored; replacements that would
	// produce a longer word are not followed. <= 0 means unbounded. Note
	// that a length cap makes the explored class an under-approximation,
	// so exhaustion under a cap yields Unknown, not NotDerivable, unless no
	// expansion was ever cut off. It is a structural window, not a meter:
	// it shapes WHICH words are reachable, not how many the budget admits.
	LengthCap int
}

// DefaultLimits is the single definition of the closure search's default
// word budget, shared by Derive and EquivalenceClass.
var DefaultLimits = budget.Limits{Words: 100000}

// Step records one rewrite in a derivation: equation Eq of the presentation
// applied at position Pos of the previous word; Forward means LHS -> RHS.
type Step struct {
	Eq      int
	Pos     int
	Forward bool
	Result  Word
}

// Derivation is an explicit equational proof that From = To: a chain of
// single-replacement steps. Validate checks it against a presentation.
type Derivation struct {
	From  Word
	To    Word
	Steps []Step
}

// Len returns the number of rewrite steps.
func (d *Derivation) Len() int { return len(d.Steps) }

// Words returns the full chain u0, u1, ..., um.
func (d *Derivation) Words() []Word {
	out := make([]Word, 0, len(d.Steps)+1)
	out = append(out, d.From)
	for _, s := range d.Steps {
		out = append(out, s.Result)
	}
	return out
}

// Validate checks every step of the derivation against p.
func (d *Derivation) Validate(p *Presentation) error {
	cur := d.From
	for i, s := range d.Steps {
		if s.Eq < 0 || s.Eq >= len(p.Equations) {
			return fmt.Errorf("words: step %d references equation %d out of range", i, s.Eq)
		}
		e := p.Equations[s.Eq]
		from, to := e.LHS, e.RHS
		if !s.Forward {
			from, to = to, from
		}
		if s.Pos < 0 || s.Pos+len(from) > len(cur) {
			return fmt.Errorf("words: step %d: position %d out of range", i, s.Pos)
		}
		for j := range from {
			if cur[s.Pos+j] != from[j] {
				return fmt.Errorf("words: step %d: word does not match equation side at position %d", i, s.Pos)
			}
		}
		next := cur.ReplaceAt(s.Pos, len(from), to)
		if !next.Equal(s.Result) {
			return fmt.Errorf("words: step %d: recorded result does not match rewrite", i)
		}
		cur = next
	}
	if !cur.Equal(d.To) {
		return fmt.Errorf("words: derivation ends at %v, not the claimed target", cur)
	}
	return nil
}

// Format renders the derivation chain, one word per line with
// justifications.
func (d *Derivation) Format(p *Presentation) string {
	a := p.Alphabet
	out := d.From.Format(a) + "\n"
	for _, s := range d.Steps {
		dir := "->"
		if !s.Forward {
			dir = "<-"
		}
		out += fmt.Sprintf("  = %s   [eq %d %s at %d: %s]\n",
			s.Result.Format(a), s.Eq, dir, s.Pos, p.Equations[s.Eq].Format(a))
	}
	return out
}

// Result is the outcome of a Derive call.
type Result struct {
	Verdict Verdict
	// Derivation is non-nil iff Verdict == Derivable.
	Derivation *Derivation
	// WordsExplored is the number of distinct words enumerated.
	WordsExplored int
	// Truncated reports that some expansion was skipped due to LengthCap,
	// which downgrades exhaustion to Unknown.
	Truncated bool
	// Budget reports how the governor cut the search short; zero (ok)
	// means the search ended on its own.
	Budget budget.Outcome
}

// Derive searches for an equational derivation of from = to under p.
func Derive(p *Presentation, from, to Word, opt ClosureOptions) Result {
	g := budget.Resolve(opt.Governor, DefaultLimits)
	wordCap := g.Limit(budget.Words)
	// Refuse to start under an already-stopped governor (see the chase and
	// search entry checks: verdicts must not depend on checkpoint timing).
	if o := g.Interrupted(); o.Stopped() {
		return Result{Verdict: Unknown, Budget: o}
	}
	if from.IsEmpty() || to.IsEmpty() {
		return Result{Verdict: NotDerivable}
	}
	if from.Equal(to) {
		return Result{Verdict: Derivable, Derivation: &Derivation{From: from, To: to}, WordsExplored: 1}
	}

	type edge struct {
		prevKey string
		step    Step
	}
	visited := map[string]edge{from.Key(): {}}
	queue := []string{from.Key()}
	truncated := false
	target := to.Key()

	reconstruct := func(k string) *Derivation {
		// Walk parents back to the source, then reverse.
		var rev []Step
		for k != from.Key() {
			e := visited[k]
			rev = append(rev, e.step)
			k = e.prevKey
		}
		steps := make([]Step, len(rev))
		for i := range rev {
			steps[i] = rev[len(rev)-1-i]
		}
		return &Derivation{From: from, To: to, Steps: steps}
	}

	for len(queue) > 0 {
		if o := g.Interrupted(); o.Stopped() {
			g.Add(budget.Words, len(visited))
			return Result{Verdict: Unknown, WordsExplored: len(visited), Truncated: truncated, Budget: o}
		}
		k := queue[0]
		queue = queue[1:]
		w := KeyToWord(k)
		for ei, eq := range p.Equations {
			for _, dirForward := range []bool{true, false} {
				src, dst := eq.LHS, eq.RHS
				if !dirForward {
					src, dst = dst, src
				}
				if len(dst) > len(src) && opt.LengthCap > 0 && len(w)-len(src)+len(dst) > opt.LengthCap {
					if len(w.Occurrences(src)) > 0 {
						truncated = true
					}
					continue
				}
				for _, pos := range w.Occurrences(src) {
					nw := w.ReplaceAt(pos, len(src), dst)
					nk := nw.Key()
					if _, seen := visited[nk]; seen {
						continue
					}
					visited[nk] = edge{prevKey: k, step: Step{Eq: ei, Pos: pos, Forward: dirForward, Result: nw}}
					if nk == target {
						g.Add(budget.Words, len(visited))
						return Result{
							Verdict:       Derivable,
							Derivation:    reconstruct(nk),
							WordsExplored: len(visited),
							Truncated:     truncated,
						}
					}
					if wordCap > 0 && len(visited) >= wordCap {
						g.Add(budget.Words, len(visited))
						return Result{Verdict: Unknown, WordsExplored: len(visited), Truncated: truncated,
							Budget: budget.Exhausted(budget.Words)}
					}
					queue = append(queue, nk)
				}
			}
		}
	}
	g.Add(budget.Words, len(visited))
	if truncated {
		return Result{Verdict: Unknown, WordsExplored: len(visited), Truncated: true}
	}
	return Result{Verdict: NotDerivable, WordsExplored: len(visited)}
}

// DeriveGoal searches for a derivation of the Main Lemma's goal A0 = 0.
func DeriveGoal(p *Presentation, opt ClosureOptions) Result {
	return Derive(p, W(p.Alphabet.A0()), W(p.Alphabet.Zero()), opt)
}

// EquivalenceClass enumerates the equational class of from under p, up to
// the budget. The boolean result reports whether the class was fully
// enumerated (no budget or length truncation).
func EquivalenceClass(p *Presentation, from Word, opt ClosureOptions) ([]Word, bool) {
	g := budget.Resolve(opt.Governor, DefaultLimits)
	wordCap := g.Limit(budget.Words)
	visited := map[string]bool{from.Key(): true}
	queue := []Word{from}
	complete := true
	for len(queue) > 0 {
		if g.Interrupted().Stopped() {
			complete = false
			break
		}
		w := queue[0]
		queue = queue[1:]
		for _, eq := range p.Equations {
			for _, dirForward := range []bool{true, false} {
				src, dst := eq.LHS, eq.RHS
				if !dirForward {
					src, dst = dst, src
				}
				if len(dst) > len(src) && opt.LengthCap > 0 && len(w)-len(src)+len(dst) > opt.LengthCap {
					if len(w.Occurrences(src)) > 0 {
						complete = false
					}
					continue
				}
				for _, pos := range w.Occurrences(src) {
					nw := w.ReplaceAt(pos, len(src), dst)
					nk := nw.Key()
					if visited[nk] {
						continue
					}
					if wordCap > 0 && len(visited) >= wordCap {
						complete = false
						continue
					}
					visited[nk] = true
					queue = append(queue, nw)
				}
			}
		}
	}
	g.Add(budget.Words, len(visited))
	out := make([]Word, 0, len(visited))
	for k := range visited {
		out = append(out, KeyToWord(k))
	}
	sortWords(out)
	return out, complete
}

func sortWords(ws []Word) {
	// shortlex order for determinism
	for i := 1; i < len(ws); i++ {
		for j := i; j > 0 && ws[j].Compare(ws[j-1]) < 0; j-- {
			ws[j], ws[j-1] = ws[j-1], ws[j]
		}
	}
}
