// Package portfolio runs the repository's engines as one adaptive
// portfolio under a single parent budget, reallocating meter headroom
// between the arms as live progress signals come in.
//
// It is the repository's one inference front-end: tdinfer, tdserve, sgword
// analyze and the differential fuzzer's certificate producer all run
// through it, each configuring the run with one core.Budget (its zero
// value runs every arm under its engine's default ceilings with no parent
// pool). Rather than give each engine a fixed budget up front, or grow
// every budget on one schedule whether the engine is converging or
// thrashing, it governs the engines as a portfolio:
//
//   - every arm (the equational closure, Knuth–Bendix completion, finite
//     counter-model search, the chase, the parity countermodels, the
//     finite-database enumerator) holds a cumulative budget LEASE — a
//     child governor of the parent pool capping the arm's dominant meter;
//   - a scheduler ticks through the arms, and at each tick decides, from
//     each arm's own progress signals, whether to feed the arm (grow its
//     lease fast), grow it steadily, or starve it (withhold growth and
//     re-probe later);
//   - the first definitive verdict retires every other arm immediately,
//     and a KB completion that decides the goal ends the run in the same
//     tick it completes in;
//   - the winning arm leaves its proof in the Result — the closure and kb
//     their derivations of A0 = 0, the chase its own labelled instance,
//     the searches and the parity arm their databases — and Result.Cert
//     serializes it on demand, so a win is never proved a second time;
//   - every decision — grants, withheld grants, retirements — is emitted
//     as a typed portfolio_realloc observability event carrying the arm,
//     the meter, the old and new cumulative grant, and the driving signal,
//     so a trace replays the full reallocation history.
//
// The EID chase (internal/eid) is deliberately not an arm. Every TD is an
// EID with a one-atom conclusion, so on the portfolio's inputs it is the
// same restricted chase as the chase arm, with the same verdicts under the
// same governor — minus the index join, the semi-naive delta and the
// resumable run. As an arm it would only re-do the chase arm's work, and
// settle the re-done rounds and tuples into the shared parent pool the
// chase draws on.
//
// # Scheduling model and determinism
//
// Arms run on ONE goroutine, time-sliced in a fixed order, one lease per
// live arm per tick. Nothing in the reallocation policy reads the clock, a
// channel, or scheduler state: each arm's health is computed from its own
// meters (tuples-per-round delta rate for the chases, rules-per-sweep rate
// for completion, window coverage for the backtracking searches), so the
// whole decision sequence — and therefore the whole trace — is a pure
// function of the input and the budget. Re-running with the same budget
// yields a byte-identical trace: the chase arm runs each round as one pass
// and the two backtracking searches walk their trees, all on this
// goroutine, so a lease's work and stop point are functions of its grant.
//
// # Lease mechanics
//
// Grants are CUMULATIVE caps, not increments. The searches re-run from
// scratch under the bigger cap, re-doing their prefix; the chase arm
// resumes one paused chase.Run (each resume re-charges the completed
// rounds, so its meters still read cumulatively) and Knuth–Bendix keeps
// one System whose rules are re-charged at the top of every completion
// call. A grant never shrinks, which is the precondition of a resume. The
// parent pool is settled with the per-lease DELTA of each meter — the pool
// meters logical frontier progress, not re-done prefix work — and when the
// parent caps a meter, Remaining headroom clamps every grant, so the
// portfolio never promises an arm more than the pool has left. A
// presentation run builds the reduction's (D, D0) once, at its first need:
// the chase arm's first lease, or a model-search win; the derivation and
// kb arms need only the normalized presentation.
//
// # Completeness
//
// Starved arms are not killed: every fourth tick a starved arm gets a
// probe lease at an aggressively grown grant, so on instances where the
// early signals mislead, the portfolio still deepens every arm
// geometrically and remains complete in the limit on both of the Main
// Theorem's sets. An arm retires only for a structural reason (the closure
// or completion refuted the goal, the closure or a search covered its
// whole window, the parity arm tried every column set) or when its lease
// already sits at the arm's hard ceiling and still exhausts.
package portfolio

import (
	"fmt"

	"templatedep/internal/budget"
	"templatedep/internal/chase"
	"templatedep/internal/core"
	"templatedep/internal/obs"
	"templatedep/internal/reduction"
	"templatedep/internal/relation"
	"templatedep/internal/semigroup"
	"templatedep/internal/td"
	"templatedep/internal/words"
)

// Scheduling constants. They are part of the determinism contract: the
// reallocation sequence depends only on these and on the arms' meters.
const (
	// maxTicks caps scheduler passes when no arm answers and no arm
	// manages to retire — far above what geometric lease growth needs to
	// reach every arm's ceiling.
	maxTicks = 64
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

// Decision is one reallocation decision, mirrored 1:1 by a
// portfolio_realloc event on the sink.
type Decision struct {
	// Tick is the scheduler pass the decision was taken in.
	Tick int
	// Arm names the arm: "derivation", "kb", "model-search", "chase",
	// "parity", "finite-db".
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

// Result reports a portfolio run.
type Result struct {
	Verdict core.Verdict
	// Winner names the arm that produced the verdict; "" for Unknown.
	Winner string
	// GoalRefuted reports that the equational closure exhausted A0's class
	// without meeting 0, or that Knuth–Bendix completion became confluent
	// and decided the word problem negatively: derivability of A0 = 0 is
	// definitively refuted, which rules out certifying implication via
	// Reduction Theorem (A) but does NOT settle the TD question (the gap
	// instances live exactly there). Presentation runs only.
	GoalRefuted bool
	// Instance is the reduction's (D, D0) for a presentation run, built
	// at the first need: the chase arm's first lease, or a model-search
	// win. It is nil when no arm needed it (a derivation or kb win before
	// the chase ran) and for TD runs; reduction.Build gives the same
	// instance.
	Instance *reduction.Instance
	// Chase is the chase arm's final lease (its Proof is the proof when
	// the chase won).
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

	// original and norm are a presentation run's problem and its
	// normalized form (reduction.Normalize); derivation is a derivation or
	// kb win's proof of A0 = 0 over norm. deps and d0 are a TD run's
	// problem.
	original, norm *words.Presentation
	derivation     *words.Derivation
	deps           []*td.TD
	d0             *td.TD
}

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
	// already written its proof into the shared Result.
	win core.Verdict
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
	// derivesGoal marks an arm that can only win by deriving A0 = 0: once
	// another arm has refuted the goal (Result.GoalRefuted), the scheduler
	// retires it "refuted" instead of running another lease.
	derivesGoal bool

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

// run is the portfolio scheduler: a sequential, deterministic time-slicer
// over the arms. res arrives with mode-specific fields (Instance) already
// set; the arms write their proofs into it through closures.
func run(arms []*arm, b core.Budget, res *Result) (*Result, error) {
	parent := budget.Resolve(b.Governor, budget.Limits{})
	emit := func(e obs.Event) {
		if b.Sink != nil {
			e.Src = "portfolio"
			b.Sink.Event(e)
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
		for _, a := range arms {
			res.Arms = append(res.Arms, ArmReport{Name: a.name, Leases: a.leases,
				Grants: a.cur, Used: a.settled, Done: a.done, Note: a.note, Starved: a.starved})
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
			if a.derivesGoal && res.GoalRefuted {
				retire(tick, a, "refuted")
				continue
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

			if lr.win != core.Unknown {
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
	res.Verdict = core.Unknown
	return finish(tick)
}
