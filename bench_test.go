// Package templatedep_test holds the benchmark harness: one benchmark per
// experiment of DESIGN.md's experiment index (F1–F3 reproduce the paper's
// figures, E1–E9 its checkable claims, plus the ablations of §4). The
// cmd/tdbench tool runs the same experiments in report form and regenerates
// EXPERIMENTS.md.
package templatedep_test

import (
	"fmt"
	"templatedep/internal/budget"
	"testing"

	"templatedep/internal/chase"
	"templatedep/internal/core"
	"templatedep/internal/diagram"
	"templatedep/internal/eid"
	"templatedep/internal/portfolio"
	"templatedep/internal/reduction"
	"templatedep/internal/relation"
	"templatedep/internal/search"
	"templatedep/internal/semigroup"
	"templatedep/internal/tableau"
	"templatedep/internal/td"
	"templatedep/internal/tm"
	"templatedep/internal/words"
)

// F1: Figure 1 — diagram <-> TD round trip on the garment dependency.
func BenchmarkFig1RoundTrip(b *testing.B) {
	_, fig1 := td.GarmentExample()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := diagram.FromTD(fig1)
		d, err := g.TD("fig1")
		if err != nil {
			b.Fatal(err)
		}
		if d.NumAntecedents() != 2 {
			b.Fatal("shape")
		}
	}
}

// F2: Figure 2 — bridge construction for words of growing length.
func BenchmarkFig2Bridge(b *testing.B) {
	p := words.TwoStepPresentation()
	in := reduction.MustBuild(p)
	alpha := p.Alphabet
	for _, k := range []int{1, 4, 16, 64} {
		w := make(words.Word, k)
		for i := range w {
			if i%2 == 0 {
				w[i] = alpha.MustSymbol("b")
			} else {
				w[i] = alpha.MustSymbol("c")
			}
		}
		b.Run(fmt.Sprintf("len=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				br, err := in.BuildBridge(w)
				if err != nil {
					b.Fatal(err)
				}
				if br.Tableau.Len() != 2*k+1 {
					b.Fatal("shape")
				}
			}
		})
	}
}

// F3: Figure 3 — building D1..D4 + D0 from presentations of growing size.
func BenchmarkFig3Construction(b *testing.B) {
	for _, tc := range []struct {
		name string
		p    *words.Presentation
	}{
		{"power", words.PowerPresentation()},
		{"chain4", words.ChainPresentation(4)},
		{"nilpotent4", words.NilpotentSafePresentation(4)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				in, err := reduction.Build(tc.p)
				if err != nil {
					b.Fatal(err)
				}
				if in.MaxAntecedents() != 5 {
					b.Fatal("antecedent bound violated")
				}
			}
		})
	}
}

// E1: Reduction Theorem (A) — the chase proves D |= D0 for derivable
// presentations; chase effort scales with derivation length.
func BenchmarkReductionDirectionA(b *testing.B) {
	for _, tc := range []struct {
		name string
		p    *words.Presentation
	}{
		{"twostep", words.TwoStepPresentation()},
		{"chain1", words.ChainPresentation(1)},
	} {
		in := reduction.MustBuild(tc.p)
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := chase.Implies(in.D, in.D0, chase.Options{Governor: budget.New(nil, budget.Limits{Rounds: 12, Tuples: 60000})})
				if err != nil {
					b.Fatal(err)
				}
				if res.Verdict != chase.Implied {
					b.Fatalf("verdict %v", res.Verdict)
				}
				b.ReportMetric(float64(res.Stats.Rounds), "rounds")
				b.ReportMetric(float64(res.Instance.Len()), "tuples")
			}
		})
	}
}

// E2: Reduction Theorem (B) — counter-model construction and verification;
// model size scales with |G|.
func BenchmarkReductionDirectionB(b *testing.B) {
	for m := 1; m <= 3; m++ {
		wit, p, err := semigroup.NilpotentInterpretationForPowers(m)
		if err != nil {
			b.Fatal(err)
		}
		in := reduction.MustBuild(p)
		b.Run(fmt.Sprintf("nilpotent%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cm, err := in.BuildCounterModel(wit)
				if err != nil {
					b.Fatal(err)
				}
				if err := in.Verify(cm); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(cm.Instance.Len()), "db-tuples")
			}
		})
	}
}

// E3: the paper's size claims — 2n+2 attributes, at most five antecedents —
// measured across a family of instances.
func BenchmarkInstanceShape(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for n := 1; n <= 4; n++ {
			p := words.NilpotentSafePresentation(n)
			in, err := reduction.Build(p)
			if err != nil {
				b.Fatal(err)
			}
			if in.Schema.Width() != 2*p.Alphabet.Size()+2 {
				b.Fatal("attribute count")
			}
			if in.MaxAntecedents() != 5 {
				b.Fatal("antecedent bound")
			}
		}
	}
}

// E4: (2,1)-normalization cost and expansion factor.
func BenchmarkNormalization(b *testing.B) {
	a := words.MustAlphabet([]string{"A0", "P", "Q", "R", "S", "0"}, "A0", "0")
	mk := func(k int) *words.Presentation {
		// One long equation P^k = Q and a few medium ones.
		lhs := make(words.Word, k)
		for i := range lhs {
			lhs[i] = a.MustSymbol("P")
		}
		eqs := []words.Equation{
			words.Eq(lhs, words.W(a.MustSymbol("Q"))),
			words.Eq(words.MustParseWord(a, "Q R S"), words.MustParseWord(a, "P Q")),
		}
		p, err := words.NewPresentation(a, eqs)
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	for _, k := range []int{4, 16, 64} {
		p := mk(k)
		b.Run(fmt.Sprintf("lhs=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n, err := words.Normalize(p)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(len(n.Presentation.Equations)), "eqs-out")
			}
		})
	}
}

// E5: TM -> semi-Thue -> presentation pipeline; the derivation certifying
// halting is found mechanically.
func BenchmarkTMPipeline(b *testing.B) {
	for _, tc := range []struct {
		name  string
		m     *tm.TM
		input []int
	}{
		{"write-one", tm.WriteOneAndHalt(), nil},
		{"flip-flop", tm.FlipFlopAndHalt(), nil},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := tm.EncodePresentation(tc.m, tc.input)
				if err != nil {
					b.Fatal(err)
				}
				res := words.DeriveGoal(p, words.ClosureOptions{Governor: budget.New(nil, budget.Limits{Words: 200000})})
				if res.Verdict != words.Derivable {
					b.Fatalf("verdict %v", res.Verdict)
				}
				b.ReportMetric(float64(res.Derivation.Len()), "deriv-steps")
			}
		})
	}
}

// E6: the decidable contrast — full TDs; chase decision time vs antecedent
// count of the goal.
func BenchmarkFullTDDecision(b *testing.B) {
	s := relation.MustSchema("A", "B", "C")
	join := td.MustParse(s, "R(a, b, c) & R(a, b', c') -> R(a, b, c')", "join")
	for _, k := range []int{2, 3, 4, 5} {
		goalText := ""
		for i := 0; i < k; i++ {
			if i > 0 {
				goalText += " & "
			}
			goalText += fmt.Sprintf("R(a, b%d, c%d)", i, i)
		}
		goalText += fmt.Sprintf(" -> R(a, b0, c%d)", k-1)
		goal := td.MustParse(s, goalText, "goal")
		b.Run(fmt.Sprintf("antecedents=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := chase.Implies([]*td.TD{join}, goal, chase.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if res.Verdict != chase.Implied {
					b.Fatalf("verdict %v", res.Verdict)
				}
			}
		})
	}
}

// E7: EID satisfaction (the Chandra et al. comparison class) on growing
// databases, plus the EID chase proving the projection implications.
func BenchmarkEIDChase(b *testing.B) {
	s, e := eid.PaperExample()
	for _, n := range []int{4, 16, 64} {
		inst := relation.NewInstance(s)
		for i := 0; i < n; i++ {
			inst.MustAdd(relation.Tuple{relation.Value(i % 4), relation.Value(i % 3), relation.Value(i % 5)})
		}
		b.Run(fmt.Sprintf("satisfies/tuples=%d", inst.Len()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.Satisfies(inst)
			}
		})
	}
	projA := eid.FromTD(td.MustParse(s, "R(a, b, c) & R(a, b', c') -> R(x, b, c)", "projA"))
	b.Run("implies/projection", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := eid.Implies([]*eid.EID{e}, projA, eid.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if res.Verdict != eid.Implied {
				b.Fatalf("verdict %v", res.Verdict)
			}
		}
	})
}

// E8: adjoining an identity preserves cancellation — the claim inside the
// proof of (B), checked over growing nilpotent semigroups.
func BenchmarkAdjoinIdentity(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		g := semigroup.NilpotentCyclic(n)
		b.Run(fmt.Sprintf("order=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				gp, _ := semigroup.AdjoinIdentity(g)
				if err := semigroup.CheckCancellation(gp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E9: the dual semidecision on the three canonical instances — who
// terminates on what.
func BenchmarkDualSemidecision(b *testing.B) {
	bud := core.Budget{}
	// A tuple ceiling under the gap reduction's round-five blow-up keeps
	// the chase arm's leases short there.
	bud.Chase = chase.Options{Governor: budget.New(nil, budget.Limits{Rounds: 16, Tuples: 1500})}
	bud.Closure = words.ClosureOptions{Governor: budget.New(nil, budget.Limits{Words: 3000}), LengthCap: 10}
	bud.ModelSearch = search.Options{Orders: budget.Range{Lo: 2, Hi: 4}, Governor: budget.New(nil, budget.Limits{Nodes: 300000})}
	for _, tc := range []struct {
		name string
		p    *words.Presentation
		want core.Verdict
	}{
		{"twostep/implied", words.TwoStepPresentation(), core.Implied},
		{"power/counterexample", words.PowerPresentation(), core.FiniteCounterexample},
		{"gap/unknown", words.IdempotentGapPresentation(), core.Unknown},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := portfolio.AnalyzePresentation(tc.p, bud)
				if err != nil {
					b.Fatal(err)
				}
				if res.Verdict != tc.want {
					b.Fatalf("verdict %v, want %v", res.Verdict, tc.want)
				}
			}
		})
	}
}

// Ablation: the semi-naive engine against eid.Chase, the reference that
// re-joins the whole instance every round, on one full-TD closure.
func BenchmarkChaseSchedulers(b *testing.B) {
	s := relation.MustSchema("A", "B", "C")
	join := td.MustParse(s, "R(a, b, c) & R(a, b', c') -> R(a, b, c')", "join")
	start := relation.NewInstance(s)
	for i := 0; i < 6; i++ {
		start.MustAdd(relation.Tuple{0, relation.Value(i), relation.Value(i)})
	}
	limits := budget.Limits{Rounds: 50, Tuples: 10000}
	b.Run("semi-naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e, err := chase.NewEngine(s, []*td.TD{join}, chase.Options{Governor: budget.New(nil, limits)})
			if err != nil {
				b.Fatal(err)
			}
			res := e.Chase(start, nil)
			if !res.FixpointReached {
				b.Fatal("no fixpoint")
			}
			b.ReportMetric(float64(res.Stats.HomomorphismsSeen), "homs")
		}
	})
	b.Run("eid", func(b *testing.B) {
		b.ReportAllocs()
		deps := []*eid.EID{eid.FromTD(join)}
		for i := 0; i < b.N; i++ {
			res, err := eid.Chase(deps, start, nil, eid.Options{Governor: budget.New(nil, limits)})
			if err != nil {
				b.Fatal(err)
			}
			if !res.FixpointReached {
				b.Fatal("no fixpoint")
			}
		}
	})
}

// Ablation: pruned backtracking homomorphism search vs brute-force
// enumeration of row-to-tuple maps.
func BenchmarkHomomorphismPruning(b *testing.B) {
	s := relation.MustSchema("A", "B", "C")
	tab := tableau.MustNew(s, []tableau.VarTuple{{0, 0, 0}, {0, 1, 1}, {1, 1, 2}})
	inst := relation.NewInstance(s)
	for i := 0; i < 24; i++ {
		inst.MustAdd(relation.Tuple{relation.Value(i % 3), relation.Value(i % 4), relation.Value(i)})
	}
	b.Run("pruned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tab.CountHomomorphisms(inst, nil)
		}
	})
	b.Run("brute", func(b *testing.B) {
		b.ReportAllocs()
		tuples := inst.Tuples()
		for i := 0; i < b.N; i++ {
			count := 0
			for _, t0 := range tuples {
				for _, t1 := range tuples {
					for _, t2 := range tuples {
						if t0[0] == t1[0] && t1[1] == t2[1] {
							count++
						}
					}
				}
			}
			_ = count
		}
	})
}

// Ablation: posting-list-indexed subsumption check vs linear scan.
func BenchmarkRowSatisfiable(b *testing.B) {
	s := relation.MustSchema("A", "B", "C")
	tab := tableau.MustNew(s, []tableau.VarTuple{{0, 0, 0}})
	for _, n := range []int{16, 256, 4096} {
		inst := relation.NewInstance(s)
		for i := 0; i < n; i++ {
			inst.MustAdd(relation.Tuple{relation.Value(i % 50), relation.Value(i % 37), relation.Value(i)})
		}
		as := tableau.NewAssignment(tab)
		as[0][0] = 49 // rare value: the index pays off
		as[1][0] = 36
		b.Run(fmt.Sprintf("indexed/tuples=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tableau.RowSatisfiable(tab.Row(0), as, inst)
			}
		})
		b.Run(fmt.Sprintf("scan/tuples=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tableau.RowSatisfiableScan(tab.Row(0), as, inst)
			}
		})
	}
}

// Ablation: Light's associativity test vs the naive cubic check.
func BenchmarkAssociativity(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		g := semigroup.NilpotentCyclic(n)
		b.Run(fmt.Sprintf("light/order=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// New re-runs Light's test on construction.
				rows := make([][]semigroup.Elem, n)
				for x := 0; x < n; x++ {
					rows[x] = make([]semigroup.Elem, n)
					for y := 0; y < n; y++ {
						rows[x][y] = g.Mul(semigroup.Elem(x), semigroup.Elem(y))
					}
				}
				if _, err := semigroup.New(rows, "bench"); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("naive/order=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !g.AssociativityNaive() {
					b.Fatal("not associative")
				}
			}
		})
	}
}

// Ablation: equational-closure BFS effort vs derivation length.
func BenchmarkWordClosure(b *testing.B) {
	for _, n := range []int{1, 4, 16} {
		p := words.ChainPresentation(n)
		b.Run(fmt.Sprintf("chain=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := words.DeriveGoal(p, words.ClosureOptions{})
				if res.Verdict != words.Derivable {
					b.Fatal("not derivable")
				}
				b.ReportMetric(float64(res.Derivation.Len()), "deriv-steps")
			}
		})
	}
}
