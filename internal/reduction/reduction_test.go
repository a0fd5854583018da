package reduction

import (
	"strings"
	"templatedep/internal/budget"
	"testing"

	"templatedep/internal/chase"
	"templatedep/internal/search"
	"templatedep/internal/semigroup"
	"templatedep/internal/tableau"
	"templatedep/internal/td"
	"templatedep/internal/words"
)

func TestBuildShape(t *testing.T) {
	p := words.PowerPresentation() // alphabet {A0, B, 0}: 3 symbols
	in, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	// 2n+2 attributes.
	if got, want := in.Schema.Width(), 2*3+2; got != want {
		t.Errorf("schema width %d, want %d", got, want)
	}
	// Four dependencies per equation.
	if got, want := len(in.D), 4*len(in.Pres.Equations); got != want {
		t.Errorf("|D| = %d, want %d", got, want)
	}
	// The paper's antecedent bound: five at most.
	if got := in.MaxAntecedents(); got != 5 {
		t.Errorf("max antecedents %d, want 5", got)
	}
	// All dependencies are embedded.
	for _, d := range append(append([]*td.TD(nil), in.D...), in.D0) {
		if d.IsFull() {
			t.Errorf("%s is full; the reduction's dependencies are embedded", d.Name())
		}
	}
	// D0 and the dependencies of the proper (non-zero) equation A0·A0 = B
	// are non-trivial. (For zero-absorption equations, where C coincides
	// with A or B, some D2/D3 instances are genuinely trivial — the C-apex
	// antecedent already witnesses the conclusion — which is sound.)
	if in.D0.IsTrivial() {
		t.Error("D0 is trivial")
	}
	for _, d := range in.DsForEquation(0) {
		if d.IsTrivial() {
			t.Errorf("%s is trivial", d.Name())
		}
	}
	// Attribute names follow the paper: A0', A0'', ..., E, E'.
	names := in.Schema.Names()
	if names[0] != "A0'" || names[1] != "A0''" {
		t.Errorf("first attributes %v", names[:2])
	}
	if names[len(names)-2] != "E" || names[len(names)-1] != "E'" {
		t.Errorf("last attributes %v", names[len(names)-2:])
	}
	// DsForEquation slices correctly and names carry D1..D4.
	ds := in.DsForEquation(0)
	for j, d := range ds {
		if !strings.HasPrefix(d.Name(), "D"+string(rune('1'+j))) {
			t.Errorf("dep %d name %q", j, d.Name())
		}
	}
}

func TestBuildNormalizesWhenNeeded(t *testing.T) {
	a := words.MustAlphabet([]string{"A0", "X", "Y", "0"}, "A0", "0")
	p, err := words.NewPresentation(a, []words.Equation{
		words.Eq(words.MustParseWord(a, "A0 X Y"), words.MustParseWord(a, "X")),
	})
	if err != nil {
		t.Fatal(err)
	}
	in, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	if in.Norm == nil {
		t.Error("normalization expected")
	}
	if !in.Pres.IsTwoOne() {
		t.Error("working presentation not (2,1)")
	}
	if in.Schema.Width() != 2*in.Pres.Alphabet.Size()+2 {
		t.Error("schema width does not track the normalized alphabet")
	}
}

func TestBuildRejectsESymbol(t *testing.T) {
	a := words.MustAlphabet([]string{"A0", "E", "0"}, "A0", "0")
	p, err := words.NewPresentation(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(p); err == nil {
		t.Error("symbol named E accepted despite attribute collision")
	}
}

func TestBridgeStructure(t *testing.T) {
	p := words.TwoStepPresentation()
	in := MustBuild(p)
	w := words.MustParseWord(p.Alphabet, "b c")
	br, err := in.BuildBridge(w)
	if err != nil {
		t.Fatal(err)
	}
	// k=2: 3 base + 2 apex rows.
	if br.Tableau.Len() != 5 {
		t.Fatalf("rows %d, want 5", br.Tableau.Len())
	}
	if len(br.BaseNodes) != 3 || len(br.ApexNodes) != 2 {
		t.Fatalf("base %d apex %d", len(br.BaseNodes), len(br.ApexNodes))
	}
	// All base rows share the E variable; all apexes share E'.
	e, ep := in.E(), in.EPrime()
	for _, bi := range br.BaseNodes[1:] {
		if br.Tableau.Row(bi)[e] != br.Tableau.Row(br.BaseNodes[0])[e] {
			t.Error("base nodes not E-equivalent")
		}
	}
	for _, ai := range br.ApexNodes[1:] {
		if br.Tableau.Row(ai)[ep] != br.Tableau.Row(br.ApexNodes[0])[ep] {
			t.Error("apex nodes not E'-equivalent")
		}
	}
	// Apexes are NOT E-equivalent to the base.
	if br.Tableau.Row(br.ApexNodes[0])[e] == br.Tableau.Row(br.BaseNodes[0])[e] {
		t.Error("apex joined the base E-class")
	}
	// Triangles: c0 ~b' d1, d1 ~b'' c1, c1 ~c' d2, d2 ~c'' c2.
	b := p.Alphabet.MustSymbol("b")
	c := p.Alphabet.MustSymbol("c")
	if br.Tableau.Row(br.BaseNodes[0])[in.Prime(b)] != br.Tableau.Row(br.ApexNodes[0])[in.Prime(b)] {
		t.Error("missing c0 ~b' d1")
	}
	if br.Tableau.Row(br.ApexNodes[0])[in.DPrime(b)] != br.Tableau.Row(br.BaseNodes[1])[in.DPrime(b)] {
		t.Error("missing d1 ~b'' c1")
	}
	if br.Tableau.Row(br.BaseNodes[1])[in.Prime(c)] != br.Tableau.Row(br.ApexNodes[1])[in.Prime(c)] {
		t.Error("missing c1 ~c' d2")
	}
	if br.Tableau.Row(br.ApexNodes[1])[in.DPrime(c)] != br.Tableau.Row(br.BaseNodes[2])[in.DPrime(c)] {
		t.Error("missing d2 ~c'' c2")
	}
	// Frozen bridge has one tuple per node.
	inst, _ := br.Freeze()
	if inst.Len() != 5 {
		t.Errorf("frozen size %d", inst.Len())
	}
	// Empty word rejected.
	if _, err := in.BuildBridge(words.Word{}); err == nil {
		t.Error("empty word accepted")
	}
}

func TestD0AntecedentsAreA0Bridge(t *testing.T) {
	p := words.PowerPresentation()
	in := MustBuild(p)
	br, err := in.BuildBridge(words.W(p.Alphabet.A0()))
	if err != nil {
		t.Fatal(err)
	}
	frozen, _ := in.D0.FrozenAntecedents()
	ok, err := br.AppearsIn(frozen, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("A0 bridge does not embed into D0's antecedents")
	}
	// And conversely: D0's antecedent tableau maps into the frozen bridge.
	brInst, _ := br.Freeze()
	matched := false
	in.D0.Tableau().EachPrefixHomomorphism(brInst, nil, in.D0.NumAntecedents(), func(tableau.Assignment) bool {
		matched = true
		return false
	})
	if !matched {
		t.Error("D0's antecedents do not embed into the A0 bridge")
	}
}

func TestDirectionATwoStep(t *testing.T) {
	rep, err := VerifyDirectionA(words.TwoStepPresentation(), words.ClosureOptions{},
		chase.Options{Governor: budget.New(nil, budget.Limits{Rounds: 12, Tuples: 60000})})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Derivation.Len() != 2 {
		t.Errorf("derivation length %d", rep.Derivation.Len())
	}
	if rep.Chase.Verdict != chase.Implied {
		t.Errorf("chase verdict %v", rep.Chase.Verdict)
	}
	t.Logf("two-step: %d rounds, %d tuples", rep.Chase.Stats.Rounds, rep.Chase.Instance.Len())
}

func TestDirectionAChain1(t *testing.T) {
	rep, err := VerifyDirectionA(words.ChainPresentation(1), words.ClosureOptions{},
		chase.Options{Governor: budget.New(nil, budget.Limits{Rounds: 12, Tuples: 60000})})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Chase.Verdict != chase.Implied {
		t.Errorf("chase verdict %v", rep.Chase.Verdict)
	}
}

func TestDirectionAChainSweep(t *testing.T) {
	// The chase simulates the 2n-step derivation in ~3 rounds per chain
	// level, and the restricted chase keeps the canonical database small
	// (subsumption blocks re-derivation): observed 3n rounds and 4n+3
	// tuples; assert generous bounds so the test documents the scaling
	// without being brittle.
	for n := 1; n <= 3; n++ {
		in := MustBuild(words.ChainPresentation(n))
		res, err := chase.Implies(in.D, in.D0, chase.Options{Governor: budget.New(nil, budget.Limits{Rounds: 3*n + 3, Tuples: 100000})})
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != chase.Implied {
			t.Fatalf("chain:%d verdict %v", n, res.Verdict)
		}
		if res.Stats.Rounds > 3*n+1 {
			t.Errorf("chain:%d took %d rounds, expected about %d", n, res.Stats.Rounds, 3*n)
		}
		if res.Instance.Len() > 4*n+4 {
			t.Errorf("chain:%d canonical database has %d tuples, expected about %d", n, res.Instance.Len(), 4*n+3)
		}
	}
}

func TestDirectionANotApplicable(t *testing.T) {
	_, err := VerifyDirectionA(words.PowerPresentation(), words.ClosureOptions{}, chase.Options{})
	if err == nil || !strings.Contains(err.Error(), "not derivable") {
		t.Errorf("err = %v", err)
	}
}

func TestDirectionBPower(t *testing.T) {
	p := words.PowerPresentation()
	n3 := semigroup.NilpotentCyclic(3)
	wit, err := semigroup.NewInterpretation(n3, p.Alphabet, map[words.Symbol]semigroup.Elem{
		p.Alphabet.A0():            0, // a
		p.Alphabet.MustSymbol("B"): 1, // a^2
		p.Alphabet.Zero():          2, // 0
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := VerifyDirectionB(p, wit)
	if err != nil {
		t.Fatal(err)
	}
	cm := rep.CounterModel
	// P = {a, I}; Q = {<I, A0, a>}.
	if len(cm.PElems) != 2 {
		t.Errorf("|P| = %d, want 2 (%v)", len(cm.PElems), cm.PElems)
	}
	if len(cm.QTriples) != 1 {
		t.Errorf("|Q| = %d, want 1 (%v)", len(cm.QTriples), cm.QTriples)
	}
	if cm.Instance.Len() != 3 {
		t.Errorf("database size %d, want 3", cm.Instance.Len())
	}
	// Identity is in P.
	if _, ok := cm.PTuple[cm.Identity]; !ok {
		t.Error("identity missing from P")
	}
}

func TestDirectionBNilpotentFamily(t *testing.T) {
	for m := 1; m <= 3; m++ {
		wit, p, err := semigroup.NilpotentInterpretationForPowers(m)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := VerifyDirectionB(p, wit)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if rep.CounterModel.Instance.Len() == 0 {
			t.Fatalf("m=%d: empty model", m)
		}
	}
}

func TestDirectionBRicherP(t *testing.T) {
	// Equation-free presentation, witness N5 with A0 -> a^4: P is all of
	// {a, a^2, a^3, a^4, I}.
	a := words.MustAlphabet([]string{"A0", "0"}, "A0", "0")
	p, err := words.NewPresentation(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	p = p.WithZeroEquations()
	n5 := semigroup.NilpotentCyclic(5)
	wit, err := semigroup.NewInterpretation(n5, a, map[words.Symbol]semigroup.Elem{
		a.A0():   semigroup.PowerElem(5, 4),
		a.Zero(): 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := VerifyDirectionB(p, wit)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rep.CounterModel.PElems); got != 5 {
		t.Errorf("|P| = %d, want 5", got)
	}
}

func TestDirectionBRejectsBadWitness(t *testing.T) {
	p := words.PowerPresentation()
	// Wrong witness: B interpreted as a (equation A0·A0 = B fails in N3).
	n3 := semigroup.NilpotentCyclic(3)
	wit, err := semigroup.NewInterpretation(n3, p.Alphabet, map[words.Symbol]semigroup.Elem{
		p.Alphabet.A0():            0,
		p.Alphabet.MustSymbol("B"): 0,
		p.Alphabet.Zero():          2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyDirectionB(p, wit); err == nil {
		t.Error("bad witness accepted")
	}
}

func TestDirectionBWithSearchedWitness(t *testing.T) {
	// End to end: the model SEARCH (not a hand-picked witness) feeds part
	// (B). The searched witness may be smaller than any hand-constructed
	// one — for power it is the order-2 null semigroup.
	p := words.PowerPresentation()
	sres, err := search.FindCounterModel(p, search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sres.Interpretation == nil {
		t.Fatalf("outcome %v", sres.Status())
	}
	rep, err := VerifyDirectionB(p, sres.Interpretation)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CounterModel.GPrime.Size() != sres.Interpretation.Table.Size()+1 {
		t.Error("G' should be G plus the adjoined identity")
	}
}

func TestCounterModelSatisfiesDViolatesD0(t *testing.T) {
	// The authoritative re-check, spelled out (Verify already ran inside
	// VerifyDirectionB; this asserts the two halves separately).
	p := words.PowerPresentation()
	in := MustBuild(p)
	n3 := semigroup.NilpotentCyclic(3)
	wit, err := semigroup.NewInterpretation(n3, p.Alphabet, map[words.Symbol]semigroup.Elem{
		p.Alphabet.A0():            0,
		p.Alphabet.MustSymbol("B"): 1,
		p.Alphabet.Zero():          2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := in.BuildCounterModel(wit)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range in.D {
		if ok, wtn := d.Satisfies(cm.Instance); !ok {
			t.Errorf("%s violated; witness %v", d.Name(), wtn)
		}
	}
	if ok, _ := in.D0.Satisfies(cm.Instance); ok {
		t.Error("D0 satisfied; not a counterexample")
	}
}
