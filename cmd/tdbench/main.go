// Command tdbench regenerates every experiment of EXPERIMENTS.md: the three
// figures of the paper (F1–F3) and the checkable claims of its text
// (E1–E9). Output is a self-contained report; `go test -bench=.` measures
// the same experiments with timing.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"templatedep/internal/budget"
	"templatedep/internal/chase"
	"templatedep/internal/core"
	"templatedep/internal/diagram"
	"templatedep/internal/eid"
	"templatedep/internal/portfolio"
	"templatedep/internal/reduction"
	"templatedep/internal/relation"
	"templatedep/internal/search"
	"templatedep/internal/semigroup"
	"templatedep/internal/td"
	"templatedep/internal/tm"
	"templatedep/internal/words"
)

func main() {
	quick := flag.Bool("quick", false, "skip the slower experiments (E5 TM pipeline sweep)")
	benchjson := flag.String("benchjson", "", "measure the F1-F3 and chase workloads and write JSON results to this file instead of running the report")
	metrics := flag.Bool("metrics", false, "with -benchjson: fold an observability counter snapshot of each chase workload into the JSON (see docs/OBSERVABILITY.md)")
	searchjson := flag.String("searchjson", "", "measure the counter-model search workloads with symmetry breaking on and off and write JSON results to this file")
	searchquick := flag.Bool("searchquick", false, "with -searchjson: one timed run per arm instead of a full benchmark loop (CI smoke)")
	portfoliojson := flag.String("portfoliojson", "", "time the adaptive portfolio on the preset grid (verdict, winning arm, scheduler work) and write JSON results to this file")
	portfolioquick := flag.Bool("portfolioquick", false, "with -portfoliojson: one timed run per preset instead of a full benchmark loop (CI smoke)")
	checkportfolio := flag.String("checkportfolio", "", "validate a -portfoliojson report (every grid preset timed, with its expected verdict and winning arm) and exit")
	checksearch := flag.String("checksearch", "", "validate a -searchjson report (parses, both ablation arms present, verdicts identical, pruning never grows a tree) and exit")
	checkbench := flag.String("checkbench", "", "validate a -benchjson report (parses, all workloads present, join-arm verdicts identical) and exit")
	loadjson := flag.String("loadjson", "", "hammer a running tdserve with a duplicate-heavy workload and write JSON results to this file")
	loadserver := flag.String("loadserver", "http://127.0.0.1:8080", "with -loadjson: base URL of the tdserve instance")
	loadn := flag.Int("loadn", 200, "with -loadjson: total requests to send")
	loadc := flag.Int("loadc", 8, "with -loadjson: concurrent client workers")
	shardjson := flag.String("shardjson", "", "self-host a 3-replica sharded tdserve ring, burst it, kill+restart one replica, and write JSON results to this file")
	shardquick := flag.Bool("shardquick", false, "with -shardjson: fewer burst rounds (CI smoke)")
	checkserve := flag.String("checkserve", "", "validate a -shardjson report (parses, shards split, peer fills adopted, restart served from the store) and exit")
	fuzzjson := flag.String("fuzzjson", "", "generate a seeded scenario corpus, run it through every engine differentially, and write JSON results to this file")
	fuzzquick := flag.Bool("fuzzquick", false, "with -fuzzjson: ~100-instance corpus (CI smoke) instead of the full default")
	fuzzn := flag.Int("fuzzn", 0, "with -fuzzjson: total corpus instances (0 means the default: 240 full, 100 quick)")
	fuzzseed := flag.Int64("fuzzseed", 1, "with -fuzzjson: corpus and mutation seed")
	checkfuzz := flag.String("checkfuzz", "", "validate a -fuzzjson report (parses, all families present, zero disagreements, definitive verdicts certified) and exit")
	flag.Parse()

	if *metrics && *benchjson == "" {
		fmt.Fprintln(os.Stderr, "tdbench: -metrics requires -benchjson")
		os.Exit(2)
	}
	if *searchquick && *searchjson == "" {
		fmt.Fprintln(os.Stderr, "tdbench: -searchquick requires -searchjson")
		os.Exit(2)
	}
	if *portfolioquick && *portfoliojson == "" {
		fmt.Fprintln(os.Stderr, "tdbench: -portfolioquick requires -portfoliojson")
		os.Exit(2)
	}
	if *checkportfolio != "" {
		checkPortfolioJSON(*checkportfolio)
		return
	}
	if *checksearch != "" {
		checkSearchJSON(*checksearch)
		return
	}
	if *checkbench != "" {
		checkBenchJSON(*checkbench)
		return
	}
	if *checkserve != "" {
		checkServeJSON(*checkserve)
		return
	}
	if *checkfuzz != "" {
		checkFuzzJSON(*checkfuzz)
		return
	}
	if (*fuzzquick || *fuzzn != 0) && *fuzzjson == "" {
		fmt.Fprintln(os.Stderr, "tdbench: -fuzzquick and -fuzzn require -fuzzjson")
		os.Exit(2)
	}
	if *fuzzjson != "" {
		writeFuzzJSON(*fuzzjson, *fuzzquick, *fuzzn, *fuzzseed)
		return
	}
	if *shardquick && *shardjson == "" {
		fmt.Fprintln(os.Stderr, "tdbench: -shardquick requires -shardjson")
		os.Exit(2)
	}
	if *shardjson != "" {
		writeShardJSON(*shardjson, *shardquick)
		return
	}
	if *loadjson != "" {
		writeLoadJSON(*loadjson, *loadserver, *loadn, *loadc)
		return
	}
	if *benchjson != "" {
		writeBenchJSON(*benchjson, *metrics)
		return
	}
	if *searchjson != "" {
		writeSearchJSON(*searchjson, *searchquick)
		return
	}
	if *portfoliojson != "" {
		writePortfolioJSON(*portfoliojson, *portfolioquick)
		return
	}

	f1()
	f2()
	f3()
	e1()
	e2()
	e3()
	e4()
	if !*quick {
		e5()
	}
	e6()
	e7()
	e8()
	e9()
	e10()
	e12()
}

func header(id, claim string) {
	fmt.Printf("\n## %s — %s\n\n", id, claim)
}

func f1() {
	header("F1 (Fig. 1)", "the garment dependency and its diagram")
	g, d := diagram.Fig1()
	fmt.Printf("paper-form TD: %s\n", d.Format())
	fmt.Print(g.ASCII())
	back, err := g.TD("roundtrip")
	check(err)
	fmt.Printf("diagram->TD round trip identical: %v\n", back.Format() == d.Format())
}

func f2() {
	header("F2 (Fig. 2)", "bridges: k triangles, k+1 base nodes, E/E' cliques")
	p := words.TwoStepPresentation()
	in := reduction.MustBuild(p)
	fmt.Printf("%-8s %-10s %-10s %-10s\n", "len(w)", "nodes", "base", "apex")
	for _, k := range []int{1, 2, 4, 8} {
		w := make(words.Word, k)
		for i := range w {
			w[i] = p.Alphabet.MustSymbol("b")
		}
		br, err := in.BuildBridge(w)
		check(err)
		fmt.Printf("%-8d %-10d %-10d %-10d\n", k, br.Tableau.Len(), len(br.BaseNodes), len(br.ApexNodes))
	}
}

func f3() {
	header("F3 (Fig. 3)", "D1..D4 per equation, D0; antecedent/conclusion shapes")
	in := reduction.MustBuild(words.PowerPresentation())
	for _, d := range in.DsForEquation(0) {
		fmt.Printf("%-22s antecedents=%d full=%v trivial=%v\n",
			d.Name(), d.NumAntecedents(), d.IsFull(), d.IsTrivial())
	}
	fmt.Printf("%-22s antecedents=%d full=%v trivial=%v\n",
		in.D0.Name(), in.D0.NumAntecedents(), in.D0.IsFull(), in.D0.IsTrivial())
}

func e1() {
	header("E1 (Main Thm A)", "derivable goal => chase proves D |= D0")
	fmt.Printf("%-10s %-12s %-9s %-8s %-8s %-10s\n", "instance", "deriv-steps", "verdict", "rounds", "tuples", "time")
	cases := []struct {
		name string
		p    *words.Presentation
	}{
		{"twostep", words.TwoStepPresentation()},
		{"chain1", words.ChainPresentation(1)},
		{"chain2", words.ChainPresentation(2)},
		{"chain3", words.ChainPresentation(3)},
	}
	for _, tc := range cases {
		in := reduction.MustBuild(tc.p)
		dres := words.DeriveGoal(in.Pres, words.ClosureOptions{})
		start := time.Now()
		cres, err := chase.Implies(in.D, in.D0, chase.Options{Governor: budget.New(nil, budget.Limits{Rounds: 32, Tuples: 200000})})
		check(err)
		fmt.Printf("%-10s %-12d %-9s %-8d %-8d %-10s\n",
			tc.name, dres.Derivation.Len(), cres.Verdict, cres.Stats.Rounds, cres.Instance.Len(),
			time.Since(start).Round(time.Millisecond))
	}
	fmt.Println("(observed scaling: chain:n needs ~3n rounds and 4n+3 canonical tuples)")

	// Growth curve for chain3: canonical-database size per round.
	in := reduction.MustBuild(words.ChainPresentation(3))
	gres, err := chase.Implies(in.D, in.D0, chase.Options{Governor: budget.New(nil, budget.Limits{Rounds: 32, Tuples: 200000})})
	check(err)
	fmt.Print("chain3 growth (round: tuples):")
	for round, n := range gres.Bounds()[1:] {
		fmt.Printf(" %d:%d", round+1, n)
	}
	fmt.Println()
}

func e2() {
	header("E2 (Main Thm B)", "finite cancellation witness => verified finite DB counterexample")
	fmt.Printf("%-12s %-8s %-6s %-6s %-10s %-8s\n", "instance", "|G|", "|P|", "|Q|", "db-tuples", "verified")
	for m := 1; m <= 3; m++ {
		wit, p, err := semigroup.NilpotentInterpretationForPowers(m)
		check(err)
		in := reduction.MustBuild(p)
		cm, err := in.BuildCounterModel(wit)
		check(err)
		verified := in.Verify(cm) == nil
		fmt.Printf("%-12s %-8d %-6d %-6d %-10d %-8v\n",
			fmt.Sprintf("nilpotent%d", m), wit.Table.Size(), len(cm.PElems), len(cm.QTriples),
			cm.Instance.Len(), verified)
	}
}

func e3() {
	header("E3 (p.73)", "2n+2 attributes; at most five antecedents")
	fmt.Printf("%-12s %-10s %-12s %-16s\n", "instance", "symbols", "attributes", "max-antecedents")
	for n := 1; n <= 4; n++ {
		p := words.NilpotentSafePresentation(n)
		in := reduction.MustBuild(p)
		fmt.Printf("%-12s %-10d %-12d %-16d\n",
			fmt.Sprintf("nilpotent%d", n), p.Alphabet.Size(), in.Schema.Width(), in.MaxAntecedents())
	}
}

func e4() {
	header("E4 (Main Lemma)", "(2,1)-normalization preserves derivability; expansion factor")
	a := words.MustAlphabet([]string{"A0", "P", "Q", "0"}, "A0", "0")
	fmt.Printf("%-8s %-8s %-8s %-14s\n", "lhs-len", "eqs-in", "eqs-out", "fresh-symbols")
	for _, k := range []int{3, 6, 12} {
		lhs := make(words.Word, k)
		for i := range lhs {
			lhs[i] = a.MustSymbol("P")
		}
		p, err := words.NewPresentation(a, []words.Equation{words.Eq(lhs, words.W(a.MustSymbol("Q")))})
		check(err)
		p = p.WithZeroEquations()
		n, err := words.Normalize(p)
		check(err)
		fmt.Printf("%-8d %-8d %-8d %-14d\n", k, len(p.Equations), len(n.Presentation.Equations), len(n.Definitions))
	}
}

func e5() {
	header("E5 (Post/Turing)", "TM halting -> presentation -> derivable goal")
	fmt.Printf("%-12s %-8s %-8s %-8s %-12s %-10s\n", "machine", "halts", "symbols", "eqs", "deriv-steps", "explored")
	for _, tc := range []struct {
		name  string
		m     *tm.TM
		input []int
	}{
		{"write-one", tm.WriteOneAndHalt(), nil},
		{"flip-flop", tm.FlipFlopAndHalt(), nil},
		{"scan-11", tm.ScanRightAndHalt(), []int{1, 1}},
	} {
		halted, _, _, err := tc.m.Run(tc.input, 1000)
		check(err)
		p, err := tm.EncodePresentation(tc.m, tc.input)
		check(err)
		res := words.DeriveGoal(p, words.ClosureOptions{Governor: budget.New(nil, budget.Limits{Words: 500000})})
		steps := -1
		if res.Derivation != nil {
			steps = res.Derivation.Len()
		}
		fmt.Printf("%-12s %-8v %-8d %-8d %-12d %-10d\n",
			tc.name, halted, p.Alphabet.Size(), len(p.Equations), steps, res.WordsExplored)
	}
}

func e6() {
	header("E6 (Sadri–Ullman)", "full TDs: the chase terminates, implication is decided")
	s := relation.MustSchema("A", "B", "C")
	join := td.MustParse(s, "R(a, b, c) & R(a, b', c') -> R(a, b, c')", "join")
	fmt.Printf("%-14s %-9s %-10s %-8s\n", "goal", "verdict", "fixpoint", "rounds")
	for k := 2; k <= 5; k++ {
		goalText := ""
		for i := 0; i < k; i++ {
			if i > 0 {
				goalText += " & "
			}
			goalText += fmt.Sprintf("R(a, b%d, c%d)", i, i)
		}
		goalText += fmt.Sprintf(" -> R(a, b0, c%d)", k-1)
		goal := td.MustParse(s, goalText, "goal")
		res, err := chase.Implies([]*td.TD{join}, goal, chase.Options{})
		check(err)
		fmt.Printf("%-14s %-9s %-10v %-8d\n",
			fmt.Sprintf("%d-antecedent", k), res.Verdict, res.FixpointReached, res.Stats.Rounds)
	}
}

func e7() {
	header("E7 (Chandra et al.)", "the EID example: shared existential is strictly stronger")
	s, e := eid.PaperExample()
	inst := relation.NewInstance(s)
	inst.MustAdd(relation.Tuple{0, 0, 0})
	inst.MustAdd(relation.Tuple{0, 1, 1})
	inst.MustAdd(relation.Tuple{1, 0, 1})
	inst.MustAdd(relation.Tuple{2, 1, 0})
	tdA := td.MustParse(s, "R(a, b, c) & R(a, b', c') -> R(x, b, c)", "tdA")
	tdB := td.MustParse(s, "R(a, b, c) & R(a, b', c') -> R(y, b, c')", "tdB")
	okA, _ := tdA.Satisfies(inst)
	okB, _ := tdB.Satisfies(inst)
	okE, _ := e.Satisfies(inst)
	fmt.Printf("instance: 4 tuples; TD split holds: %v & %v; EID with shared a*: %v\n", okA, okB, okE)
	fmt.Printf("=> the conjunctive conclusion is not expressible by its TD projections\n")
}

func e8() {
	header("E8 (proof of B)", "adjoining an identity preserves cancellation")
	fmt.Printf("%-14s %-10s %-14s\n", "semigroup", "order", "G+I cancels")
	cases := []*semigroup.Table{semigroup.NilpotentCyclic(3), semigroup.NilpotentCyclic(10)}
	tb, _ := semigroup.FreeNilpotent(2, 3)
	cases = append(cases, tb)
	for _, g := range cases {
		gp, _ := semigroup.AdjoinIdentity(g)
		fmt.Printf("%-14s %-10d %-14v\n", g.Name(), g.Size(), semigroup.CheckCancellation(gp) == nil)
	}
}

func e9() {
	header("E9 (inseparability)", "dual semidecision: who terminates on what")
	b := core.Budget{}
	// A tuple ceiling under the gap reduction's round-five blow-up keeps
	// the chase arm's leases short there.
	b.Chase = chase.Options{Governor: budget.New(nil, budget.Limits{Rounds: 16, Tuples: 1500})}
	b.Closure = words.ClosureOptions{Governor: budget.New(nil, budget.Limits{Words: 3000}), LengthCap: 10}
	b.ModelSearch = search.Options{Orders: budget.Range{Lo: 2, Hi: 4}, Governor: budget.New(nil, budget.Limits{Nodes: 300000})}
	fmt.Printf("%-12s %-24s %-14s %-12s\n", "instance", "verdict", "winner", "time")
	for _, tc := range []struct {
		name string
		p    *words.Presentation
	}{
		{"twostep", words.TwoStepPresentation()},
		{"chain2", words.ChainPresentation(2)},
		{"power", words.PowerPresentation()},
		{"nilpotent2", words.NilpotentSafePresentation(2)},
		{"gap", words.IdempotentGapPresentation()},
	} {
		start := time.Now()
		res, err := portfolio.AnalyzePresentation(tc.p, b)
		check(err)
		fmt.Printf("%-12s %-24s %-14s %-12s\n", tc.name, res.Verdict, orNone(res.Winner), time.Since(start).Round(time.Millisecond))
	}
}

func e10() {
	header("E10 (witness census)", "how rare is part (B)'s witness class among all finite semigroups")
	fmt.Printf("%-7s %-9s %-10s %-10s %-13s %-14s %-10s\n",
		"order", "classes", "has-zero", "has-id", "commutative", "witness-class", "J-trivial")
	for n := 1; n <= 4; n++ {
		c := semigroup.TakeCensus(n)
		fmt.Printf("%-7d %-9d %-10d %-10d %-13d %-14d %-10d\n",
			c.Order, c.Classes, c.WithZero, c.WithIdentity, c.Commutative, c.WitnessClass, c.JTrivial)
	}
	fmt.Println("(class counts cross-validated against OEIS A027851: 1, 5, 24, 188, ...)")
}

func e12() {
	header("E12 (intro motivation)", "redundancy and minimization audits via the inference engine")
	s := relation.MustSchema("A", "B", "C")
	deps, err := td.ParseSet(s, `
join:   R(a, b, c) & R(a, b', c') -> R(a, b, c')
triple: R(a, b, c) & R(a, b', c') & R(a, b'', c'') -> R(a, b, c'')
other:  R(a, b, c) & R(a', b, c') -> R(a, b, c')
`)
	check(err)
	red, err := chase.RedundantMembers(deps, chase.Options{})
	check(err)
	fmt.Printf("redundant members of {join, triple, other}: %v (join ≡ triple via antecedent collapse)\n", red)
	bloated := td.MustParse(s, "R(a, b, c) & R(a, b', c') & R(a, b'', c'') -> R(a, b, c'')", "bloated")
	min, err := chase.MinimizeAntecedents(bloated, chase.Options{})
	check(err)
	fmt.Printf("antecedent minimization: %d -> %d antecedents\n", bloated.NumAntecedents(), min.NumAntecedents())
	eq, err := chase.Equivalent([]*td.TD{bloated}, []*td.TD{min}, chase.Options{})
	check(err)
	fmt.Printf("minimized form equivalent: %v\n", eq == chase.Implied)
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
