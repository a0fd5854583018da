// Package chase implements the chase procedure for template dependencies:
// the canonical semidecision procedure for TD implication.
//
// To decide whether a set D of TDs logically implies a TD D0, freeze D0's
// antecedents into a database of distinct constants and close it under D:
// whenever some dependency's antecedents match but its conclusion is not
// yet witnessed, add the conclusion tuple, inventing fresh values (labeled
// nulls) for existentially quantified positions. D implies D0 exactly when
// the (possibly infinite) chase result contains a tuple matching D0's
// conclusion under the identity assignment of D0's universal variables.
//
// For FULL dependencies no fresh values are ever invented, so the chase
// terminates and implication is decidable (Sadri–Ullman). For embedded
// dependencies the chase may run forever — the paper proves it must, in
// general: TD inference is undecidable. The engine therefore runs in fair
// rounds under explicit budgets and returns a three-valued verdict:
//
//   - Implied: the conclusion appeared; the run's chase sequence
//     (Result.Proof) is a proof.
//   - NotImplied: a fixpoint was reached without the conclusion; the final
//     instance is a finite counterexample database satisfying D and
//     violating D0.
//   - Unknown: budget exhausted first.
//
// Fairness (round-robin over dependencies, breadth-first over trigger
// generations) makes the procedure complete in the limit: every logically
// implied conclusion is found given enough budget.
//
// Every run records its own proof: the per-round boundaries and the
// dependency that added each tuple (Result.Proof, Result.Bounds).
//
// The chase has one configuration: the semi-naive restricted chase with
// the index join, under DefaultLimits unless a governor says otherwise. Each
// fair round is one sequential pass that enumerates triggers and applies
// them as it goes. Options only choose how it is observed (Sink,
// PerDepStats). A run can pause and resume under a growing budget
// (Engine.Start, Run.Resume), which is how the portfolio's chase arm
// carries its rounds from lease to lease. Its independent reference is
// eid.Chase, which tests run on the same inputs.
package chase

import (
	"fmt"
	"slices"

	"templatedep/internal/budget"
	"templatedep/internal/obs"
	"templatedep/internal/relation"
	"templatedep/internal/tableau"
	"templatedep/internal/td"
)

// Options bounds and configures a chase run.
type Options struct {
	// Governor bounds Chase and Implies runs (Run.Resume takes its own):
	// its rounds meter caps fair rounds, its tuples meter caps the instance
	// size, and its context is checked once per round and every
	// interruptBatch homomorphisms within one. Nil resolves to a fresh
	// governor with DefaultLimits per run.
	Governor *budget.Governor
	// Sink receives structured observability events (round boundaries,
	// per-dependency firings, delta sizes, nulls, the verdict). Nil — the
	// default — skips every emission. The run emits on the calling
	// goroutine, so the event stream is a pure function of the problem and
	// the limits. See docs/OBSERVABILITY.md for the schema.
	Sink obs.Sink
	// PerDepStats populates Stats.PerDep with per-dependency counters.
	// Off by default so the untraced hot path allocates nothing extra.
	PerDepStats bool
}

// DefaultLimits are the meter caps an ungoverned chase runs under: 64 fair
// rounds and a 100000-tuple instance.
var DefaultLimits = budget.Limits{Rounds: 64, Tuples: 100000}

// interruptBatch is how many enumerated homomorphisms pass between context
// polls inside a round. One poll per batch keeps the inner loop free of
// governor traffic while bounding cancellation latency even when a single
// round diverges.
const interruptBatch = 4096

// Verdict is the three-valued outcome of an implication check.
type Verdict int

const (
	// Unknown means budgets ran out before an answer.
	Unknown Verdict = iota
	// Implied means D logically implies D0 (certified by Result.Proof).
	Implied
	// NotImplied means the chase reached a fixpoint without witnessing the
	// conclusion: the fixpoint is a finite counterexample.
	NotImplied
)

func (v Verdict) String() string {
	switch v {
	case Implied:
		return "implied"
	case NotImplied:
		return "not-implied"
	default:
		return "unknown"
	}
}

// Fired is one step of a chase proof: dependency Dep added Tuple, new to
// the instance, in fair round Round.
type Fired struct {
	// Dep is the index of the dependency in the input set.
	Dep int
	// Round is the fair round in which the trigger fired (1-based).
	Round int
	// Tuple is the tuple the step added.
	Tuple relation.Tuple
}

// Stats reports work performed by a chase run.
type Stats struct {
	Rounds        int
	TriggersFired int
	TuplesAdded   int
	// HomomorphismsSeen counts antecedent homomorphisms enumerated. On a
	// round the tuple cap or a cancellation stops, it counts only the
	// consumed prefix of the round's enumeration: up to, not including, the
	// trigger the tuple cap refused.
	HomomorphismsSeen int
	// NullsCreated counts labeled nulls invented for existential
	// conclusion positions across the whole run.
	NullsCreated int
	// PerDep holds per-dependency counters, indexed like the engine's
	// input set; nil unless Options.PerDepStats was set.
	PerDep []DepStats
}

// DepStats are the per-dependency counters of one chase run.
type DepStats struct {
	// Fired counts triggers fired: antecedents matched, conclusion missing
	// from the round-start instance.
	Fired int
	// Added counts tuples the dependency contributed that were new.
	Added int
	// Nulls counts labeled nulls the dependency's conclusions invented.
	Nulls int
}

// Result is the outcome of a chase or implication run.
type Result struct {
	Verdict Verdict
	// Instance is the final chase instance (the canonical database).
	Instance *relation.Instance
	// FixpointReached reports that no trigger was applicable in the last
	// round: the instance satisfies every dependency.
	FixpointReached bool
	// Budget reports how the governor cut the run short; the zero value
	// (ok) means the run completed on its own. Stats and Instance are valid
	// — partial — either way.
	Budget budget.Outcome
	Stats  Stats

	// bounds is Bounds(); labels[j] is the index of the dependency that
	// added tuple bounds[0]+j. The instance is append-only, so the two are
	// the run's whole chase sequence.
	bounds []int
	labels []int
}

// Bounds returns the per-round instance boundaries: Bounds()[i] is the
// instance size after fair round i, and Bounds()[0] the start instance's
// size. A round cut short by the budget has no boundary.
func (r *Result) Bounds() []int { return r.bounds }

// Proof returns the run's chase sequence: every tuple the run added to its
// start instance, in insertion order, with the dependency whose firing
// added it and its round. For an Implied verdict it is a proof of the
// implication, which ValidateTrace accepts against the start instance and
// the goal. The tuples alias Instance's rows.
func (r *Result) Proof() []Fired {
	out := make([]Fired, len(r.labels))
	round := 1
	for j, dep := range r.labels {
		p := r.bounds[0] + j
		for round < len(r.bounds) && p >= r.bounds[round] {
			round++
		}
		out[j] = Fired{Dep: dep, Round: round, Tuple: r.Instance.Tuple(p)}
	}
	return out
}

// Engine runs chases of a fixed dependency set over one schema.
type Engine struct {
	schema *relation.Schema
	deps   []*td.TD
	opt    Options
}

// NewEngine validates that all dependencies share the schema.
func NewEngine(schema *relation.Schema, deps []*td.TD, opt Options) (*Engine, error) {
	for i, d := range deps {
		if !d.Schema().Equal(schema) {
			return nil, fmt.Errorf("chase: dependency %d (%s) has a different schema", i, d.Name())
		}
	}
	return &Engine{schema: schema, deps: deps, opt: opt}, nil
}

// Chase closes start under the engine's dependencies (start is cloned)
// under Options.Governor. The goal callback, if non-nil, is evaluated
// after the initial state and after every round; when it returns true the
// chase stops early with Verdict Implied.
func (e *Engine) Chase(start *relation.Instance, goal func(*relation.Instance) bool) Result {
	return e.start(start.Clone(), goal).Resume(e.opt.Governor)
}

// Implies checks whether the engine's dependency set logically implies d0,
// by chasing d0's frozen antecedents under Options.Governor and watching
// for its conclusion.
func (e *Engine) Implies(d0 *td.TD) (Result, error) {
	r, err := e.Start(d0)
	if err != nil {
		return Result{}, err
	}
	return r.Resume(e.opt.Governor), nil
}

// Start returns the chase of d0's frozen antecedents, watching for d0's
// conclusion, paused before round 1.
func (e *Engine) Start(d0 *td.TD) (*Run, error) {
	if !d0.Schema().Equal(e.schema) {
		return nil, fmt.Errorf("chase: goal dependency has a different schema")
	}
	frozen, as := d0.FrozenAntecedents()
	concl := d0.Conclusion()
	return e.start(frozen, func(inst *relation.Instance) bool {
		return tableau.RowSatisfiable(concl, as, inst)
	}), nil
}

func (e *Engine) start(inst *relation.Instance, goal func(*relation.Instance) bool) *Run {
	r := &Run{e: e, goal: goal, inst: inst, bounds: []int{inst.Len()}}
	if e.opt.PerDepStats {
		r.stats.PerDep = make([]DepStats, len(e.deps))
	}
	return r
}

// Run is one chase computation that pauses whenever its governor stops it
// and continues under the next governor it is given. The instance is
// append-only and each round appends a contiguous block of tuples, so the
// instance, its round boundaries, the dependency label of every added
// tuple and the Stats of the last completed round are the run's whole
// state: the delta frontier of round i+1 is bounds[i-1] to bounds[i].
type Run struct {
	e    *Engine
	goal func(*relation.Instance) bool
	inst *relation.Instance
	// bounds[i] is the instance size after round i, bounds[0] the start's;
	// labels[j] is the index of the dependency that added tuple
	// bounds[0]+j. Both end at the last completed round.
	bounds []int
	labels []int
	// stats is the Stats through the last completed round.
	stats Stats
}

// Resume continues the run under g (nil resolves to DefaultLimits) until
// the goal is witnessed, a fixpoint is reached or g stops it. It first
// charges g with the rounds and tuples of the rounds already completed and
// emits one chase_warmstart event for them, so g's meters, the Stats and a
// replayed trace read as if the run had started under g. If the previous
// Resume stopped inside a round, the run first rolls back to that round's
// start and chases the round again in full.
//
// The one precondition: g's caps are never below the previous Resume's
// (the portfolio's lease growth guarantees it). Under it the Result is
// exactly that of one cold run under g's caps: verdict, Stats, instance
// and proof. The Result shares the run's instance and is valid until the
// next Resume; a run that returned Implied or reached a fixpoint is
// finished.
func (r *Run) Resume(g *budget.Governor) Result {
	e, sink := r.e, r.e.opt.Sink
	done := len(r.bounds) - 1
	if n := r.bounds[done]; r.inst.Len() > n {
		// ClonePrefix also resets the fresh-value counters the cut round
		// advanced, so the re-run numbers its nulls as a cold run would.
		// Copying the labels too leaves the stopped Result whole.
		r.inst = r.inst.ClonePrefix(n)
		r.labels = slices.Clone(r.labels)
	}
	inst := r.inst
	res := Result{Instance: inst, Stats: r.stats, bounds: r.bounds, labels: r.labels}
	res.Stats.PerDep = slices.Clone(r.stats.PerDep)
	// Resolved per Resume, so a reused engine never carries an exhausted
	// meter pool between chases. The tuple cap is fetched once and compared
	// against inst.Len() before each trigger is applied — the hot path never
	// touches the governor's meters.
	g = budget.Resolve(g, DefaultLimits)
	tupleCap := g.Limit(budget.Tuples)
	emitVerdict := func() {
		if sink != nil {
			sink.Event(obs.Event{Type: obs.EvVerdict, Src: "chase",
				Verdict: res.Verdict.String(), Round: res.Stats.Rounds, Tuples: res.Instance.Len()})
		}
	}
	// emitStop reports a budget stop (exhaustion or cancellation) just
	// before the verdict, so a cut-short trace still explains itself.
	emitStop := func() {
		if sink == nil || !res.Budget.Stopped() {
			return
		}
		typ := obs.EvBudgetExhausted
		if res.Budget.Code != budget.CodeExhausted {
			typ = obs.EvCancelled
		}
		sink.Event(obs.Event{Type: typ, Src: "chase",
			Round: res.Stats.Rounds, Resource: res.Budget.Reason()})
	}

	if done > 0 {
		// The completed prefix is reported as one event carrying its
		// cumulative totals, so the trace still replays to the Stats the
		// run reports (TestTraceReplayMatchesStats invariant).
		g.Add(budget.Rounds, done)
		g.Add(budget.Tuples, r.stats.TuplesAdded)
		if sink != nil {
			st := r.stats
			sink.Event(obs.Event{Type: obs.EvChaseWarmStart, Src: "chase",
				Round: done, Tuples: r.bounds[done], N: st.TriggersFired, Added: st.TuplesAdded,
				Homs: st.HomomorphismsSeen, Nulls: st.NullsCreated})
		}
	} else if r.goal != nil && r.goal(inst) {
		res.Verdict = Implied
		emitVerdict()
		return res
	}

	// ranges restricts each enumeration's rows; reused across rounds.
	var ranges []tableau.Range

	for round := done + 1; ; round++ {
		// One governor checkpoint per fair round: the charge refuses the
		// round when the rounds meter is spent or the context is done, so a
		// cancelled run stops within one round and Stats still counts only
		// completed rounds.
		if o := g.Charge(budget.Rounds, 1); o.Stopped() {
			res.Verdict = Unknown
			res.Budget = o
			emitStop()
			emitVerdict()
			return res
		}
		res.Stats.Rounds = round

		// Delta tracking for semi-naive evaluation: tuples with index <
		// prevLen existed before the last round, and the round sees the
		// prefix of length lastLen.
		useDelta := round > 1
		lastLen, prevLen := r.bounds[round-1], 0
		if useDelta {
			prevLen = r.bounds[round-2]
		}
		if sink != nil {
			sink.Event(obs.Event{Type: obs.EvRoundStart, Src: "chase", Round: round, Tuples: lastLen})
			if useDelta {
				sink.Event(obs.Event{Type: obs.EvDeltaSize, Src: "chase", Round: round, N: lastLen - prevLen})
			}
		}
		var homsRound, nullsRound, firedRound, addedRound int
		// emitRoundTail closes the round's event group; it is also called
		// on early exits so partial rounds replay to the reported Stats.
		emitRoundTail := func() {
			if sink == nil {
				return
			}
			if nullsRound > 0 {
				sink.Event(obs.Event{Type: obs.EvNullsCreated, Src: "chase", Round: round, N: nullsRound})
			}
			sink.Event(obs.Event{Type: obs.EvTuplesAdded, Src: "chase", Round: round, N: addedRound})
			sink.Event(obs.Event{Type: obs.EvRoundEnd, Src: "chase", Round: round,
				Tuples: inst.Len(), N: firedRound, Homs: homsRound})
		}
		// Dependencies are walked in order, so per-dependency firing events
		// aggregate into three scalars and flush when the firing dependency
		// changes, costing no allocations.
		curDep, curFired, curAdded := -1, 0, 0
		flushDep := func() {
			if sink != nil && curDep >= 0 {
				sink.Event(obs.Event{Type: obs.EvDepFired, Src: "chase", Round: round,
					Dep: curDep, N: curFired, Added: curAdded})
			}
			curFired, curAdded = 0, 0
		}

		// The round is one pass over the dependencies in order. A
		// homomorphism whose conclusion the round-start instance (the prefix
		// of length lastLen) does not witness is an active trigger, and its
		// conclusion is added at once. Every row's range ends at lastLen, so
		// tuples the round adds are invisible to its own enumeration and to
		// the join's choice of rows.
		var stop budget.Outcome
		var di int
		var d *td.TD
		yield := func(as tableau.Assignment) bool {
			homsRound++
			// A single round's enumeration is unbounded on divergent
			// instances, so cancellation latency cannot be per-round only:
			// every batch of homomorphisms polls the context.
			if homsRound%interruptBatch == 0 {
				if stop = g.Interrupted(); stop.Stopped() {
					return false
				}
			}
			if tableau.RowSatisfiableWithin(d.Conclusion(), as, inst, lastLen) {
				return true
			}
			if tupleCap > 0 && inst.Len() >= tupleCap {
				// The round counts the enumeration it consumed, up to but
				// not including the refused trigger.
				homsRound--
				stop = budget.Exhausted(budget.Tuples)
				return false
			}
			if di != curDep {
				flushDep()
				curDep = di
			}
			tup, nulls := conclusionTuple(d, as, inst)
			_, added, err := inst.Add(tup)
			if err != nil {
				// Cannot happen: tuples are built against the schema.
				panic(err)
			}
			res.Stats.TriggersFired++
			res.Stats.NullsCreated += nulls
			firedRound++
			nullsRound += nulls
			curFired++
			if added {
				res.Stats.TuplesAdded++
				addedRound++
				curAdded++
				res.labels = append(res.labels, di)
			}
			if res.Stats.PerDep != nil {
				ds := &res.Stats.PerDep[di]
				ds.Fired++
				ds.Nulls += nulls
				if added {
					ds.Added++
				}
			}
			return true
		}
		for di = 0; di < len(e.deps) && !stop.Stopped(); di++ {
			d = e.deps[di]
			k := d.NumAntecedents()
			// Round 1 makes one full enumeration (j = -1). A later round makes
			// one per delta position j: row j maps to a tuple the previous
			// round added and is pinned outermost, earlier rows map to older
			// tuples, later rows to anything.
			lo, hi := 0, k
			if !useDelta {
				lo, hi = -1, 0
			}
			for j := lo; j < hi && !stop.Stopped(); j++ {
				ranges = ranges[:0]
				for i := 0; i < k; i++ {
					rg := tableau.Range{Lo: 0, Hi: lastLen}
					if i < j {
						rg.Hi = prevLen
					} else if i == j {
						rg.Lo = prevLen
					}
					ranges = append(ranges, rg)
				}
				d.Tableau().EachRangeHomomorphism(inst, ranges, j, nil, yield)
			}
		}
		res.Stats.HomomorphismsSeen += homsRound
		flushDep()
		g.Add(budget.Tuples, addedRound)
		if stop.Stopped() {
			// A round cut short still closes its event group, so a stopped
			// run replays to exactly the Stats it reports.
			res.Verdict = Unknown
			res.Budget = stop
			emitRoundTail()
			emitStop()
			emitVerdict()
			return res
		}
		if firedRound == 0 {
			res.FixpointReached = true
			if r.goal == nil {
				res.Verdict = Unknown
			} else {
				res.Verdict = NotImplied
			}
			emitRoundTail()
			emitVerdict()
			return res
		}
		emitRoundTail()
		r.bounds = append(r.bounds, inst.Len())
		r.labels = res.labels
		r.stats = res.Stats
		r.stats.PerDep = slices.Clone(res.Stats.PerDep)
		res.bounds = r.bounds
		if r.goal != nil && r.goal(inst) {
			res.Verdict = Implied
			emitVerdict()
			return res
		}
	}
}

// conclusionTuple materializes d's conclusion under as, inventing fresh
// values for unbound (existential) positions; nulls reports how many were
// invented.
func conclusionTuple(d *td.TD, as tableau.Assignment, inst *relation.Instance) (tup relation.Tuple, nulls int) {
	concl := d.Conclusion()
	tup = make(relation.Tuple, len(concl))
	for a, v := range concl {
		if bound := as[a][v]; bound != tableau.Unbound {
			tup[a] = bound
		} else {
			tup[a] = inst.FreshValue(relation.Attr(a))
			nulls++
		}
	}
	return tup, nulls
}

// Implies is a convenience one-shot wrapper around Engine.Implies.
func Implies(deps []*td.TD, d0 *td.TD, opt Options) (Result, error) {
	e, err := NewEngine(d0.Schema(), deps, opt)
	if err != nil {
		return Result{}, err
	}
	return e.Implies(d0)
}

// AllFull reports whether every dependency in the set is full; for full
// sets the chase terminates, so Implies is a decision procedure.
func AllFull(deps []*td.TD) bool {
	for _, d := range deps {
		if !d.IsFull() {
			return false
		}
	}
	return true
}
