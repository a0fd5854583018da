package templatedep_test

import (
	"bytes"
	"reflect"
	"testing"

	"templatedep/internal/budget"
	"templatedep/internal/chase"
	"templatedep/internal/obs"
	"templatedep/internal/reduction"
	"templatedep/internal/words"
)

// A resumed chase must be invisible in everything but wall clock: the chase
// of a fixed (D, D0) pair is one deterministic computation, and the leases
// a chase.Run is resumed under only decide where it pauses. These tests
// pin that down on the paper's own workloads: a run resumed lease by lease
// under non-decreasing caps and one cold run under the last caps must agree
// on the verdict, the budget outcome, every Stats field, the governor's
// meters, the tuple-for-tuple identity of the final instance, and the
// chase proof.

// resumeCase is one run resumed under each of leases in turn. stops[i] is
// how lease i must end, and verdict is the last lease's verdict (every
// earlier one is unknown), so the case exercises the resume path it is
// named for.
type resumeCase struct {
	name    string
	p       *words.Presentation
	leases  []budget.Limits
	stops   []budget.Outcome
	verdict chase.Verdict
}

var resumeCases = []resumeCase{
	// The goal is witnessed after a resume.
	{"chain1", words.ChainPresentation(1),
		[]budget.Limits{{Rounds: 1, Tuples: 200000}, {Rounds: 2, Tuples: 200000}, {Rounds: 64, Tuples: 200000}},
		[]budget.Outcome{budget.Exhausted(budget.Rounds), budget.Exhausted(budget.Rounds), {}}, chase.Implied},
	{"chain2", words.ChainPresentation(2),
		[]budget.Limits{{Rounds: 2, Tuples: 200000}, {Rounds: 64, Tuples: 200000}},
		[]budget.Outcome{budget.Exhausted(budget.Rounds), {}}, chase.Implied},
	// The tuple cap stops the first lease inside round 5 (7 tuples before
	// it, 9 after); the second rolls back to 7 tuples and finds the goal in
	// round 6.
	{"chain2-resume", words.ChainPresentation(2),
		[]budget.Limits{{Rounds: 64, Tuples: 8}, {Rounds: 64, Tuples: 200000}},
		[]budget.Outcome{budget.Exhausted(budget.Tuples), {}}, chase.Implied},
	// The gap instance diverges (round 5 is intractable — see
	// budget_integration_test.go): the rounds cap stops the first lease at
	// round 2 and binds again on the resumed one, at round 4.
	{"gap", words.IdempotentGapPresentation(),
		[]budget.Limits{{Rounds: 2, Tuples: 10000}, {Rounds: 4, Tuples: 10000}},
		[]budget.Outcome{budget.Exhausted(budget.Rounds), budget.Exhausted(budget.Rounds)}, chase.Unknown},
	// The second lease stops inside round 5 on the tuple cap; the third
	// rolls back to round 4's boundary and chases round 5 again.
	{"gap-resume", words.IdempotentGapPresentation(),
		[]budget.Limits{{Rounds: 2, Tuples: 3000}, {Rounds: 8, Tuples: 3000}, {Rounds: 8, Tuples: 6000}},
		[]budget.Outcome{budget.Exhausted(budget.Rounds), budget.Exhausted(budget.Tuples), budget.Exhausted(budget.Tuples)},
		chase.Unknown},
	// tower:2's reduction reaches its fixpoint after two resumes.
	{"tower2", words.PowerTowerPresentation(2),
		[]budget.Limits{{Rounds: 2, Tuples: 8192}, {Rounds: 4, Tuples: 16384}, {Rounds: 16, Tuples: 65536}},
		[]budget.Outcome{budget.Exhausted(budget.Rounds), budget.Exhausted(budget.Rounds), {}}, chase.NotImplied},
}

// resume runs tc's leases on one chase.Run and returns the last Result
// with the last lease's governor. sink, when non-nil, is reset before the
// last lease, so it holds that lease's events alone.
func resume(t *testing.T, in *reduction.Instance, tc resumeCase, perDep bool, sink *bytes.Buffer) (chase.Result, *budget.Governor) {
	t.Helper()
	opt := chase.Options{PerDepStats: perDep}
	if sink != nil {
		opt.Sink = obs.NewJSONLSink(sink)
	}
	e, err := chase.NewEngine(in.Schema, in.D, opt)
	if err != nil {
		t.Fatal(err)
	}
	run, err := e.Start(in.D0)
	if err != nil {
		t.Fatal(err)
	}
	var res chase.Result
	var g *budget.Governor
	for i, l := range tc.leases {
		if sink != nil && i == len(tc.leases)-1 {
			sink.Reset()
		}
		g = budget.New(nil, l)
		res = run.Resume(g)
		want := chase.Unknown
		if i == len(tc.leases)-1 {
			want = tc.verdict
		}
		if res.Verdict != want || res.Budget != tc.stops[i] {
			t.Fatalf("lease %d: verdict %v, budget %v; want %v, %v", i+1, res.Verdict, res.Budget, want, tc.stops[i])
		}
	}
	return res, g
}

func TestWarmVsColdIdentical(t *testing.T) {
	for _, tc := range resumeCases {
		in := reduction.MustBuild(tc.p)
		for _, perDep := range []bool{false, true} {
			name := tc.name
			if perDep {
				name += "/perdep"
			}
			t.Run(name, func(t *testing.T) {
				warm, wg := resume(t, in, tc, perDep, nil)
				cg := budget.New(nil, tc.leases[len(tc.leases)-1])
				cold, err := chase.Implies(in.D, in.D0, chase.Options{Governor: cg, PerDepStats: perDep})
				if err != nil {
					t.Fatal(err)
				}
				if warm.Verdict != cold.Verdict {
					t.Errorf("verdict: resumed %v, cold %v", warm.Verdict, cold.Verdict)
				}
				if warm.FixpointReached != cold.FixpointReached {
					t.Errorf("fixpoint: resumed %v, cold %v", warm.FixpointReached, cold.FixpointReached)
				}
				if warm.Budget != cold.Budget {
					t.Errorf("budget outcome: resumed %v, cold %v", warm.Budget, cold.Budget)
				}
				if !reflect.DeepEqual(warm.Stats, cold.Stats) {
					t.Errorf("stats: resumed %+v, cold %+v", warm.Stats, cold.Stats)
				}
				for _, r := range []budget.Resource{budget.Rounds, budget.Tuples} {
					if wg.Used(r) != cg.Used(r) {
						t.Errorf("%s used: resumed %d, cold %d", r, wg.Used(r), cg.Used(r))
					}
				}
				if !reflect.DeepEqual(warm.Instance.Tuples(), cold.Instance.Tuples()) {
					t.Errorf("instances differ: resumed %d tuples, cold %d tuples",
						warm.Instance.Len(), cold.Instance.Len())
				}
				if !reflect.DeepEqual(warm.Proof(), cold.Proof()) || !reflect.DeepEqual(warm.Bounds(), cold.Bounds()) {
					t.Errorf("proofs differ: resumed %d steps over rounds %v, cold %d steps over rounds %v",
						len(warm.Proof()), warm.Bounds(), len(cold.Proof()), cold.Bounds())
				}
			})
		}
	}
}

// The replay invariant extends to a resumed lease: its trace folds the
// completed rounds into one chase_warmstart event, and replaying the
// lease's events alone must still reproduce the Stats it reports.
func TestWarmTraceReplayMatchesStats(t *testing.T) {
	for _, tc := range resumeCases {
		t.Run(tc.name, func(t *testing.T) {
			in := reduction.MustBuild(tc.p)
			var buf bytes.Buffer
			res, _ := resume(t, in, tc, false, &buf)
			tot, err := obs.Replay(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if tot.WarmStarts != 1 {
				t.Errorf("warm starts: replay %d, want 1", tot.WarmStarts)
			}
			st := res.Stats
			if tot.Rounds != st.Rounds {
				t.Errorf("rounds: replay %d, stats %d", tot.Rounds, st.Rounds)
			}
			if tot.TriggersFired != st.TriggersFired {
				t.Errorf("fired: replay %d, stats %d", tot.TriggersFired, st.TriggersFired)
			}
			if tot.TuplesAdded != st.TuplesAdded {
				t.Errorf("added: replay %d, stats %d", tot.TuplesAdded, st.TuplesAdded)
			}
			if tot.NullsCreated != st.NullsCreated {
				t.Errorf("nulls: replay %d, stats %d", tot.NullsCreated, st.NullsCreated)
			}
			if tot.Homomorphisms != st.HomomorphismsSeen {
				t.Errorf("homs: replay %d, stats %d", tot.Homomorphisms, st.HomomorphismsSeen)
			}
			if got := tot.Verdicts["chase"]; got != res.Verdict.String() {
				t.Errorf("verdict: replay %q, run %q", got, res.Verdict)
			}
		})
	}
}
