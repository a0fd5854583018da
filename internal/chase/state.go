package chase

import (
	"slices"

	"templatedep/internal/budget"
	"templatedep/internal/relation"
	"templatedep/internal/td"
)

// Warm-start snapshots. For a fixed dependency set and start instance, the
// chase is ONE deterministic computation: the goal and the budget only
// decide how much of it a given run observes.
// The instance is append-only and every round appends a contiguous range of
// tuples, so recording the instance together with the per-round length
// boundaries and cumulative Stats captures every intermediate state of the
// run at once — and, with the dependency label of every added tuple, its
// whole chase sequence, so a resumed run keeps its proof. A later run over
// the same dependency list and start instance replays those boundaries
// (checking its own goal against each prefix via
// tableau.RowSatisfiableWithin) and, when the snapshot is not complete,
// resumes the round loop exactly where the producing run left off — with
// identical verdicts, Stats, tuple identity and proof to a cold run,
// because the restored loop state (instance, delta frontier, fresh-value
// counters, cumulative meters) is byte-for-byte what the cold run would
// have held.
//
// Snapshots only ever describe CLEAN round boundaries: a run cut mid-round
// (by the tuple cap or a cancellation) truncates its snapshot to the last
// completed round, discarding the partial round — resuming then re-derives
// that round from the delta, which is exactly the cold computation. relation.Instance.ClonePrefix rebuilds the truncated
// instance from its rows, which also renormalizes the fresh-value counters
// a round cut short may have advanced past the boundary.

// stateEligible reports whether this engine configuration can produce or
// consume warm-start snapshots. Only PerDepStats matters: it demands
// per-dependency detail a boundary snapshot does not retain, and falls back
// to a cold run rather than approximate.
func (e *Engine) stateEligible() bool {
	return !e.opt.PerDepStats
}

// State is a reusable snapshot of a chase computation, produced under
// Options.CaptureState (Result.State) and consumed via Options.WarmState.
// It is immutable once captured and safe to share across goroutines — a
// consuming run clones what it needs.
type State struct {
	// inst is the instance after the last completed round, rebuilt as a
	// normalized prefix clone (ClonePrefix) so its fresh-value counters
	// match a cold run paused at that boundary.
	inst *relation.Instance
	// bounds[i] is the instance size after round i; bounds[0] is the start
	// instance size. Every intermediate instance of the producing run is
	// the prefix inst[:bounds[i]].
	bounds []int
	// labels[j] indexes into deps the dependency that added tuple
	// bounds[0]+j (Result.Proof).
	labels []int
	deps   []*td.TD
	// cum[i] is the cumulative Stats through round i (cum[0] is zero).
	cum []Stats
	// final is the producing run's Stats including the empty fixpoint
	// round; valid only when complete.
	final Stats
	// complete marks a snapshot whose chase reached a fixpoint: replay
	// answers every goal and budget, nothing is left to resume.
	complete bool
	// stopped marks a snapshot truncated by meter exhaustion; the budget
	// class below then gates reuse.
	stopped bool
	// classRounds/classTuples are the producing run's meter limits (0 =
	// unlimited) — its budget class.
	classRounds, classTuples int
}

// Rounds returns the number of completed rounds the snapshot holds.
func (s *State) Rounds() int { return len(s.bounds) - 1 }

// Stopped reports whether the snapshot was truncated by meter exhaustion.
func (s *State) Stopped() bool { return s.stopped }

// ReusableUnder implements the budget-class rule for budget-stopped
// states, mirroring the verdict cache: a state truncated by meter
// exhaustion may only seed a run whose budget class is strictly larger in
// at least one dimension — never a smaller-or-equal class. States that
// completed on their own (fixpoint, goal found, or a mere cancellation)
// carry no such restriction: their replay is exact under any meters.
func (s *State) ReusableUnder(l budget.Limits) bool {
	if !s.stopped {
		return true
	}
	return largerLimit(l.Rounds, s.classRounds) || largerLimit(l.Tuples, s.classTuples)
}

// largerLimit compares meter limits treating 0 as unlimited.
func largerLimit(next, prior int) bool {
	if prior == 0 {
		return false
	}
	if next == 0 {
		return true
	}
	return next > prior
}

// labelsFor returns a copy of the dependency labels of the tuples added
// through round i.
func (s *State) labelsFor(i int) []int {
	return append([]int(nil), s.labels[:s.bounds[i]-s.bounds[0]]...)
}

// compatibleWith reports whether the snapshot describes the computation
// this engine would run from start: the same dependency list, schema and
// start instance tuple-for-tuple, so a snapshot from another computation
// (or caller misuse) degrades to a cold run instead of a wrong answer.
func (s *State) compatibleWith(e *Engine, start *relation.Instance) bool {
	return s != nil && s.inst != nil && len(s.bounds) > 0 && len(s.cum) == len(s.bounds) &&
		(s.complete || len(s.bounds) >= 2) && slices.Equal(s.deps, e.deps) &&
		s.inst.Schema().Equal(e.schema) &&
		s.bounds[0] == start.Len() && s.inst.EqualPrefix(start, start.Len())
}
