package portfolio

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"templatedep/internal/budget"
	"templatedep/internal/cert"
	"templatedep/internal/core"
	"templatedep/internal/corpus"
	"templatedep/internal/reduction"
	"templatedep/internal/td"
)

// servingClass is tdserve's per-request budget at rounds 24, tuples 500
// and nodes 150000: one parent pool, with the chase and the node-metered
// arms under children of it.
func servingClass() core.Budget {
	g := budget.New(nil, budget.Limits{Rounds: 24, Tuples: 500, Nodes: 150000})
	b := core.Budget{Governor: g}
	b.Chase.Governor = g.Child(budget.Limits{Rounds: 24, Tuples: 500})
	b.FiniteDB.Governor = g.Child(budget.Limits{Nodes: 150000})
	return b
}

// On the seed-1 corpus's oracle family at the serving class, every
// not-implied independence atom is settled in the first tick, with a
// certificate the checker accepts: by the chase's opening lease where it
// reaches a fixpoint, and otherwise by the parity arm, never by the
// enumerator. The parity arm never wins an implied instance. oracle/1553
// and oracle/2763 are two atoms whose parity countermodels hold 8 tuples
// over 4 columns, beyond the enumerator's reach at this class.
func TestParityArmSettlesIndependenceAtoms(t *testing.T) {
	ins, err := corpus.Generate(corpus.Options{Seed: 1, Random: 3000, Oracle: 3000, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	atoms, wins := 0, map[string]int{}
	for _, in := range ins {
		if in.Family != corpus.FamilyOracle {
			continue
		}
		res, err := Infer(in.Deps, in.Goal, servingClass())
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case in.Oracle == corpus.OracleImplied:
			if res.Winner == "parity" {
				t.Errorf("%s: the parity arm won an implied instance", in.ID)
			}
		case strings.HasPrefix(in.Label, "ind{"):
			atoms++
			wins[res.Winner]++
			// The chase runs first: an atom whose sides cover the schema
			// is a full TD, and its opening lease reaches the fixpoint.
			if (res.Winner != "parity" && res.Winner != "chase") || res.Ticks != 1 || res.Verdict != core.FiniteCounterexample {
				t.Errorf("%s: %v won by %q in tick %d, want parity or chase in tick 1", in.ID, res.Verdict, res.Winner, res.Ticks)
				continue
			}
			c := res.Cert()
			if c == nil || c.Kind != cert.KindFiniteModel {
				t.Errorf("%s: %s win certified as %v", in.ID, res.Winner, c)
			} else if err := cert.Check(c); err != nil {
				t.Errorf("%s: certificate rejected: %v", in.ID, err)
			}
		}
		if in.ID == "oracle/1553" || in.ID == "oracle/2763" {
			if res.Verdict != core.FiniteCounterexample {
				t.Errorf("%s: verdict %v, want finite-counterexample", in.ID, res.Verdict)
			}
		}
	}
	t.Logf("%d not-implied independence atoms, winners %v", atoms, wins)
	if wins["parity"] == 0 {
		t.Error("the parity arm won no independence atom")
	}
}

// armsOf returns the arm names Infer builds for (deps, d0). A cancelled
// parent stops the run before the first lease, so nothing runs.
func armsOf(t *testing.T, deps []*td.TD, d0 *td.TD) string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Infer(deps, d0, core.Budget{Governor: budget.New(ctx, budget.Limits{})})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, a := range res.Arms {
		names = append(names, a.Name)
	}
	return fmt.Sprint(names)
}

// The parity arm runs between the chase and the enumerator, and only on
// schemas of width at most finitemodel.ParityMaxWidth: every preset's
// reduction is wider, so its TD instance keeps the two arms it had.
func TestParityArmOnlyOnNarrowSchemas(t *testing.T) {
	_, fig1 := td.GarmentExample()
	if got := armsOf(t, nil, fig1); got != "[chase parity finite-db]" {
		t.Errorf("width 3: arms %s", got)
	}
	for _, name := range []string{"power", "twostep", "gap", "chain:1", "chain:2", "chain:3", "chain:4", "chain:5",
		"chain:6", "nilpotent:1", "nilpotent:2", "nilpotent:3", "nilpotent:4", "nilpotent:5", "tower:1", "tower:2",
		"tower:3", "tower:4", "collapse:2", "collapse:3", "collapse:4"} {
		in, err := reduction.Build(mustPreset(t, name))
		if err != nil {
			t.Fatal(err)
		}
		if got := armsOf(t, in.D, in.D0); got != "[chase finite-db]" {
			t.Errorf("%s (width %d): arms %s", name, in.Schema.Width(), got)
		}
	}
}
