// Package portfolio runs the repository's engines as one adaptive
// portfolio under a single parent budget, reallocating meter headroom
// between the arms as live progress signals come in.
//
// The static front-ends in core treat the engines as fixed-budget arms: the
// race gives each arm its whole budget up front, iterative deepening grows
// every budget by the same schedule whether the arm is converging or
// thrashing. This package replaces both with a governed portfolio:
//
//   - every arm (Knuth–Bendix completion, finite counter-model search, the
//     chase, the finite-database enumerator) holds a cumulative budget
//     LEASE — a child governor of the parent pool capping the arm's
//     dominant meter;
//   - a scheduler ticks through the arms, and at each tick decides, from
//     each arm's own progress signals, whether to feed the arm (grow its
//     lease fast), grow it steadily, or starve it (withhold growth and
//     re-probe later);
//   - the first definitive verdict retires every other arm immediately,
//     and a KB completion that decides the goal ends the run in the same
//     tick it completes in;
//   - every decision — grants, withheld grants, retirements — is emitted
//     as a typed portfolio_realloc observability event carrying the arm,
//     the meter, the old and new cumulative grant, and the driving signal,
//     so a trace replays the full reallocation history.
//
// The EID chase (internal/eid) is deliberately not an arm. Every TD is an
// EID with a one-atom conclusion, so on the portfolio's inputs it is the
// same restricted chase as the chase arm, with the same verdicts under the
// same governor — minus the index join, the semi-naive delta and the warm
// carry. As an arm it would only re-do the chase arm's work, and settle
// the re-done rounds and tuples into the shared parent pool the chase
// draws on.
//
// # Scheduling model and determinism
//
// Arms run on ONE goroutine, time-sliced in a fixed order, one lease per
// live arm per tick. Nothing in the reallocation policy reads the clock, a
// channel, or scheduler state: each arm's health is computed from its own
// meters (tuples-per-round delta rate for the chases, rules-per-sweep rate
// for completion, window coverage for the backtracking searches), so the
// whole decision sequence — and therefore the whole trace — is a pure
// function of the input and the options. Re-running with the same options
// yields a byte-identical trace for any Workers value: the chase arm's
// merge-phase emission is deterministic under Workers > 1, and the two
// backtracking-search arms are pinned to Workers = 1 inside the portfolio
// because a parallel search stopped by a budget is the one engine run in
// the repository whose committed-node count is scheduling-dependent.
//
// # Lease mechanics
//
// Grants are CUMULATIVE caps, not increments. Arms that cannot snapshot
// (the searches) re-run from scratch under the bigger cap, re-doing their
// prefix; the chase arm resumes from its captured State (the warm
// replay re-charges the prefix, so its meters still read cumulatively) and
// Knuth–Bendix keeps one System whose rules are re-charged at the top of
// every completion call. The parent pool is settled with the per-lease
// DELTA of each meter — the pool meters logical frontier progress, not
// re-done prefix work — and when the parent caps a meter, Remaining
// headroom clamps every grant, so the portfolio never promises an arm more
// than the pool has left.
//
// # Completeness
//
// Starved arms are not killed: every fourth tick a starved arm gets a
// probe lease at an aggressively grown grant, so on instances where the
// early signals mislead, the portfolio still deepens every arm
// geometrically and remains complete in the limit on both of the Main
// Theorem's sets. An arm retires only for a structural reason (completion
// refuted the goal, a search covered its whole window) or when its lease
// already sits at the arm's hard ceiling and still exhausts.
package portfolio

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
)

// Verdict is the three-valued outcome of a portfolio run. The values and
// strings mirror core.Verdict so front-ends can map between the two
// layers by name.
type Verdict int

const (
	// Unknown means every arm retired or the parent budget stopped the
	// run before any arm produced a definitive answer.
	Unknown Verdict = iota
	// Implied means D logically implies D0 (won by the chase or a
	// confluent completion that decides the goal).
	Implied
	// FiniteCounterexample means a finite database satisfies D and
	// violates D0 (won by a chase fixpoint, the finite-database
	// enumerator, or a verified finite counter-model).
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

// Scheduling constants. They are part of the determinism contract: the
// reallocation sequence depends only on these and on the arms' meters.
const (
	// DefaultMaxTicks caps scheduler passes when no arm answers and no
	// arm manages to retire — far above what geometric lease growth needs
	// to reach every arm's ceiling.
	DefaultMaxTicks = 64
	// stallThreshold is the hysteresis: an arm is starved only after this
	// many consecutive stalling leases, so one noisy lease cannot starve
	// a converging arm.
	stallThreshold = 2
	// probeEvery is the starvation re-probe period: a starved arm skips
	// probeEvery-1 ticks (each skip recorded as a withheld grant), then
	// runs a probe lease at the fed growth factor.
	probeEvery = 4
	// growSteady and growFed are the lease growth factors for healthy and
	// converging arms.
	growSteady = 2
	growFed    = 4
)

// Options configures a portfolio run. The zero value runs every arm under
// its engine's default ceilings with no parent pool.
type Options struct {
	// Governor is the parent pool: its context cancels the whole
	// portfolio at the next lease boundary, and any meter it caps becomes
	// a shared pool whose Remaining headroom clamps every arm's grants.
	// Nil resolves to an unlimited background governor.
	Governor *budget.Governor
	// Sink receives the portfolio's own events (arm_start / arm_result
	// per lease, portfolio_realloc per decision, cancelled, verdict, all
	// with Src "portfolio") and is threaded into each arm engine that
	// accepts a sink. Nil disables emission.
	Sink obs.Sink
	// Workers parallelizes the chase arm (merge-phase emission stays
	// deterministic). The two backtracking-search arms always run with
	// Workers = 1 — their committed-node counts under a budget stop are
	// the one scheduling-dependent statistic in the repository, and the
	// portfolio's reallocation policy feeds on exact meter readings.
	Workers int
	// TickScale multiplies every arm's opening grants; <= 0 means 1.
	// Verdicts are invariant under TickScale (leases grow geometrically
	// either way); traces are not, since lease boundaries move.
	TickScale int
	// MaxTicks caps scheduler passes; <= 0 means DefaultMaxTicks.
	MaxTicks int
	// Memory seeds the arms with allocations learned by a previous run
	// (see Result.Memory); nil starts cold.
	Memory *Memory
	// Certify makes a definitive verdict carry a serializable certificate
	// (Result.Cert): native proof objects (a validated chase trace, the
	// verified counter-model) serialize directly, and Implied wins from
	// arms without one (kb, an untraced chase lease) are certified by
	// a deterministic traced chase replay. Off by default — the replay
	// costs one extra chase run on some wins.
	Certify bool

	// Per-engine options. Governors inside them contribute their meter
	// limits as the arm's hard ceilings (engine defaults otherwise); the
	// portfolio replaces the governor itself with per-lease children and
	// overrides Sink and Workers per the portfolio contract.
	Chase       chase.Options
	ModelSearch search.Options
	FiniteDB    finitemodel.Options
	Completion  rewrite.CompletionOptions
}

// Decision is one reallocation decision, mirrored 1:1 by a
// portfolio_realloc event on the sink.
type Decision struct {
	// Tick is the scheduler pass the decision was taken in.
	Tick int
	// Arm names the arm: "kb", "model-search", "chase", "finite-db".
	Arm string
	// Meter is the resource whose cumulative grant the decision changes.
	Meter budget.Resource
	// Old and New are the cumulative grant before and after. New == Old
	// records a withheld grant (a starved arm skipping a tick); New == 0
	// records retirement.
	Old, New int
	// Signal is what drove the decision: "seed", "steady", "fed",
	// "stalled", "probe", "capped", or a retirement reason ("confluent",
	// "refuted", "covered", "exhausted", "preempted").
	Signal string
}

// ArmReport summarizes one arm's run.
type ArmReport struct {
	// Name is the arm name as used in events and decisions.
	Name string
	// Leases is how many leases the arm ran.
	Leases int
	// Grants holds the final cumulative caps of the arm's lease.
	Grants budget.Limits
	// Used holds the arm's settled logical meter usage.
	Used budget.Limits
	// Done reports the arm retired before the run ended; Note is the
	// retirement reason.
	Done bool
	Note string
	// Starved reports the arm was starved when the run ended.
	Starved bool
}

// Memory carries allocations learned by one portfolio run into the next —
// iterative deepening threads it through rounds so a re-run does not
// re-learn that (say) the chase needs tuples much faster than rounds.
type Memory struct {
	Arms map[string]ArmMemory
}

// ArmMemory is one arm's learned state.
type ArmMemory struct {
	// Grants are the cumulative caps the arm had reached.
	Grants budget.Limits
	// Stall and Starved carry the health hysteresis.
	Stall   int
	Starved bool
	// Done with a structural Note ("refuted", "covered") keeps the arm
	// retired in the next run; budget-relative notes ("exhausted") do
	// not, since the next run may hold a bigger pool.
	Done bool
	Note string
}

// Result reports a portfolio run.
type Result struct {
	Verdict Verdict
	// Winner names the arm that produced the verdict; "" for Unknown.
	Winner string
	// GoalRefuted reports that Knuth–Bendix completion became confluent
	// and decided the word problem negatively: derivability of A0 = 0 is
	// definitively refuted, which rules out certifying implication via
	// Reduction Theorem (A) but does NOT settle the TD question (the gap
	// instances live exactly there). Presentation runs only.
	GoalRefuted bool
	// Instance is the reduction's (D, D0); presentation runs only.
	Instance *reduction.Instance
	// Chase is the chase arm's final lease (its trace is the proof when
	// the chase won; its State warm-starts a later run).
	Chase *chase.Result
	// Counterexample is the finite database violating D0, when an arm
	// found one.
	Counterexample *relation.Instance
	// Witness and CounterModel certify a model-search win.
	Witness      *semigroup.Interpretation
	CounterModel *reduction.CounterModel
	// Ticks is the number of scheduler passes run.
	Ticks int
	// Decisions is the full reallocation decision sequence, mirrored 1:1
	// by the portfolio_realloc events on the sink.
	Decisions []Decision
	// Arms reports every arm in scheduling order.
	Arms []ArmReport
	// Stop reports how the parent budget cut the run short; zero when
	// the run ended by verdict or by every arm retiring.
	Stop budget.Outcome
	// Memory is the learned allocation state, ready to seed a re-run.
	Memory *Memory

	cert *cert.Certificate
}

// Cert returns the run's serializable certificate: non-nil for definitive
// verdicts of runs with Options.Certify set whose winning verdict could be
// certified (see the Certify doc), nil otherwise.
func (r *Result) Cert() *cert.Certificate { return r.cert }

// armHealth is an arm's self-reported progress classification for one
// lease, computed from the arm's own meters only.
type armHealth int

const (
	healthSteady armHealth = iota
	// healthConverging: the arm's work-per-step rate is shrinking (chase
	// delta shrinking, completion adding fewer rules per sweep) or the
	// arm made structural progress (a search covered its window) — feed
	// it.
	healthConverging
	// healthStalling: the rate is growing — the arm is diverging within
	// its lease; two in a row starve it.
	healthStalling
)

// leaseResult is what one arm lease reports back to the scheduler.
type leaseResult struct {
	// win, when not Unknown, is the definitive verdict; the arm has
	// already written its certificates into the shared Result.
	win Verdict
	// done retires the arm for the structural reason in note.
	done bool
	note string
	// health drives the next reallocation decision for this arm.
	health armHealth
	// verdict is the arm_result event's verdict string.
	verdict string
	// outcome is how the lease's governor stopped it.
	outcome budget.Outcome
}

// arm is one portfolio member: a name, a dominant meter, the cumulative
// lease caps, hard ceilings, and a closure running one lease.
type arm struct {
	name  string
	meter budget.Resource
	// cur holds the cumulative caps of the next lease; max holds the hard
	// ceilings (0 = uncapped).
	cur, max budget.Limits
	// run executes one lease under g; g's limits are a.cur.
	run func(g *budget.Governor) (leaseResult, error)

	done    bool
	note    string
	stall   int
	starved bool
	skip    int
	leases  int
	health  armHealth
	settled budget.Limits
	lastOut budget.Outcome
}

// clampSeed clamps every capped meter of l to the arm ceiling and the
// parent pool headroom, flooring at 1 so a clamp never turns a cap into
// "uncapped".
func (a *arm) clampSeed(parent *budget.Governor) {
	for _, r := range budget.Resources() {
		v := a.cur.Of(r)
		if v <= 0 {
			continue
		}
		if m := a.max.Of(r); m > 0 && v > m {
			v = m
		}
		if rem, ok := parent.Remaining(r); ok && v > rem {
			v = rem
		}
		if v < 1 {
			v = 1
		}
		a.cur = a.cur.With(r, v)
	}
}

// grown returns a.cur with every capped meter multiplied by mult, clamped
// to the arm ceiling and to settled-plus-pool-headroom, never shrinking.
func (a *arm) grown(parent *budget.Governor, mult int) budget.Limits {
	l := a.cur
	for _, r := range budget.Resources() {
		v := a.cur.Of(r)
		if v <= 0 {
			continue
		}
		nv := v * mult
		if m := a.max.Of(r); m > 0 && nv > m {
			nv = m
		}
		if rem, ok := parent.Remaining(r); ok {
			if ceil := a.settled.Of(r) + rem; nv > ceil {
				nv = ceil
			}
		}
		if nv < v {
			nv = v
		}
		l = l.With(r, nv)
	}
	return l
}

// adopt seeds the arm from a previous run's memory: grants merge upward
// (never below this run's opening grants), hysteresis carries over, and a
// structural retirement stays retired.
func (a *arm) adopt(mem *Memory) {
	if mem == nil {
		return
	}
	m, ok := mem.Arms[a.name]
	if !ok {
		return
	}
	for _, r := range budget.Resources() {
		if v := m.Grants.Of(r); v > a.cur.Of(r) && a.cur.Of(r) > 0 {
			a.cur = a.cur.With(r, v)
		}
	}
	a.stall = m.Stall
	a.starved = m.Starved
	if m.Done && (m.Note == "refuted" || m.Note == "covered") {
		a.done, a.note = true, m.Note
	}
}

// run is the portfolio scheduler: a sequential, deterministic time-slicer
// over the arms. res arrives with mode-specific fields (Instance) already
// set; the arms write their certificates into it through closures.
func run(arms []*arm, opt Options, res *Result) (*Result, error) {
	parent := budget.Resolve(opt.Governor, budget.Limits{})
	maxTicks := opt.MaxTicks
	if maxTicks <= 0 {
		maxTicks = DefaultMaxTicks
	}
	emit := func(e obs.Event) {
		if opt.Sink != nil {
			e.Src = "portfolio"
			opt.Sink.Event(e)
		}
	}
	decide := func(tick int, a *arm, meter budget.Resource, old, now int, signal string) {
		res.Decisions = append(res.Decisions, Decision{Tick: tick, Arm: a.name, Meter: meter, Old: old, New: now, Signal: signal})
		emit(obs.Event{Type: obs.EvPortfolioRealloc, Arm: a.name, Resource: meter.String(),
			Old: old, New: now, Signal: signal, Round: tick})
	}
	retire := func(tick int, a *arm, note string) {
		a.done, a.note = true, note
		decide(tick, a, a.meter, a.cur.Of(a.meter), 0, note)
	}
	finish := func(tick int) (*Result, error) {
		res.Ticks = tick
		res.Memory = &Memory{Arms: make(map[string]ArmMemory, len(arms))}
		for _, a := range arms {
			res.Arms = append(res.Arms, ArmReport{Name: a.name, Leases: a.leases,
				Grants: a.cur, Used: a.settled, Done: a.done, Note: a.note, Starved: a.starved})
			res.Memory.Arms[a.name] = ArmMemory{Grants: a.cur, Stall: a.stall,
				Starved: a.starved, Done: a.done, Note: a.note}
		}
		emit(obs.Event{Type: obs.EvVerdict, Verdict: res.Verdict.String(), Round: tick})
		return res, nil
	}
	interrupted := func(tick int, o budget.Outcome) (*Result, error) {
		res.Stop = o
		emit(obs.Event{Type: obs.EvCancelled, Resource: o.Reason(), Round: tick})
		return finish(tick)
	}

	for _, a := range arms {
		a.adopt(opt.Memory)
		a.clampSeed(parent)
	}

	tick := 0
	for tick < maxTicks {
		tick++
		live := 0
		for _, a := range arms {
			if !a.done {
				live++
			}
		}
		if live == 0 {
			tick--
			break
		}
		for _, a := range arms {
			if a.done {
				continue
			}
			if o := parent.Interrupted(); o.Stopped() {
				return interrupted(tick, o)
			}

			// Retirement check first: if the last lease exhausted a meter
			// that cannot grow even at the fed factor, no future lease can
			// do better — the arm is at its ceiling (or the pool is dry).
			if a.leases > 0 && a.lastOut.Code == budget.CodeExhausted {
				r := a.lastOut.Resource
				if a.grown(parent, growFed).Of(r) == a.cur.Of(r) {
					retire(tick, a, "exhausted")
					continue
				}
			}

			// Reallocation decision.
			var signal string
			mult := 1
			switch {
			case a.leases == 0:
				signal = "seed"
			case a.starved:
				if a.skip < probeEvery-1 {
					a.skip++
					decide(tick, a, a.meter, a.cur.Of(a.meter), a.cur.Of(a.meter), "stalled")
					continue
				}
				a.skip = 0
				signal, mult = "probe", growFed
			case a.health == healthConverging:
				signal, mult = "fed", growFed
			default:
				signal, mult = "steady", growSteady
			}
			next := a.cur
			if mult > 1 {
				next = a.grown(parent, mult)
				if next.Of(a.meter) == a.cur.Of(a.meter) {
					signal = "capped"
				}
			}
			decide(tick, a, a.meter, a.cur.Of(a.meter), next.Of(a.meter), signal)
			for _, r := range budget.Resources() {
				if r != a.meter && next.Of(r) != a.cur.Of(r) {
					decide(tick, a, r, a.cur.Of(r), next.Of(r), signal)
				}
			}
			a.cur = next

			// Run the lease.
			child := parent.Child(a.cur)
			emit(obs.Event{Type: obs.EvArmStart, Arm: a.name, Round: tick})
			lr, err := a.run(child)
			if err != nil {
				return nil, fmt.Errorf("portfolio: %s arm: %w", a.name, err)
			}
			a.leases++
			a.lastOut = lr.outcome
			a.health = lr.health
			for _, r := range budget.Resources() {
				u := child.Used(r)
				if d := u - a.settled.Of(r); d > 0 {
					parent.Add(r, d)
					a.settled = a.settled.With(r, u)
				}
			}
			emit(obs.Event{Type: obs.EvArmResult, Arm: a.name, Verdict: lr.verdict, Round: tick})

			if lr.win != Unknown {
				res.Verdict = lr.win
				res.Winner = a.name
				a.done, a.note = true, "won"
				for _, o := range arms {
					if !o.done {
						retire(tick, o, "preempted")
					}
				}
				return finish(tick)
			}
			if lr.done {
				retire(tick, a, lr.note)
				continue
			}
			switch lr.health {
			case healthConverging, healthSteady:
				a.stall, a.starved = 0, false
			case healthStalling:
				a.stall++
				if a.stall >= stallThreshold {
					a.starved = true
				}
			}
			if lr.outcome.Code == budget.CodeCancelled || lr.outcome.Code == budget.CodeDeadline {
				return interrupted(tick, lr.outcome)
			}
		}
	}
	if tick == maxTicks {
		for _, a := range arms {
			if !a.done {
				res.Stop = budget.Exhausted(budget.Rounds)
				emit(obs.Event{Type: obs.EvBudgetExhausted, Resource: budget.Rounds.String(), Round: tick})
				break
			}
		}
	}
	res.Verdict = Unknown
	return finish(tick)
}
