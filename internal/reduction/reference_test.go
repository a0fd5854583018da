package reduction

import (
	"fmt"
	"os/exec"
	"sort"
	"strings"
	"testing"

	"templatedep/internal/corpus"
	"templatedep/internal/diagram"
	"templatedep/internal/relation"
	"templatedep/internal/td"
	"templatedep/internal/words"
)

// This file keeps the diagram path as the reference Build's direct rows
// are checked against: each D1(r)–D4(r) and D0 drawn as a dependency
// diagram (Fig. 3) and converted with diagram.TD.

// diagramDeps draws the reduction's dependencies for in.Pres as diagrams.
func diagramDeps(in *Instance) ([]*td.TD, *td.TD) {
	var deps []*td.TD
	for i, eq := range in.Pres.Equations {
		A, B := eq.LHS[0], eq.LHS[1]
		C := eq.RHS[0]
		label := eq.Format(in.Pres.Alphabet)

		g1 := diagram.MustNew(in.Schema, 6, 5)
		g1.MustAddEdge(in.e, 0, 1)
		g1.MustAddEdge(in.e, 1, 2)
		g1.MustAddEdge(in.prime[A], 0, 3)
		g1.MustAddEdge(in.dprime[A], 3, 1)
		g1.MustAddEdge(in.prime[B], 1, 4)
		g1.MustAddEdge(in.dprime[B], 4, 2)
		g1.MustAddEdge(in.ePrime, 3, 4)
		g1.MustAddEdge(in.prime[C], 0, 5)
		g1.MustAddEdge(in.dprime[C], 5, 2)
		g1.MustAddEdge(in.ePrime, 3, 5)

		g2 := diagram.MustNew(in.Schema, 4, 3)
		g2.MustAddEdge(in.e, 0, 1)
		g2.MustAddEdge(in.prime[C], 0, 2)
		g2.MustAddEdge(in.dprime[C], 2, 1)
		g2.MustAddEdge(in.prime[A], 0, 3)
		g2.MustAddEdge(in.ePrime, 2, 3)

		g3 := diagram.MustNew(in.Schema, 4, 3)
		g3.MustAddEdge(in.e, 0, 1)
		g3.MustAddEdge(in.prime[C], 0, 2)
		g3.MustAddEdge(in.dprime[C], 2, 1)
		g3.MustAddEdge(in.dprime[B], 3, 1)
		g3.MustAddEdge(in.ePrime, 2, 3)

		g4 := diagram.MustNew(in.Schema, 6, 5)
		g4.MustAddEdge(in.e, 0, 1)
		g4.MustAddEdge(in.prime[C], 0, 2)
		g4.MustAddEdge(in.dprime[C], 2, 1)
		g4.MustAddEdge(in.prime[A], 0, 3)
		g4.MustAddEdge(in.dprime[B], 4, 1)
		g4.MustAddEdge(in.ePrime, 2, 3)
		g4.MustAddEdge(in.ePrime, 3, 4)
		g4.MustAddEdge(in.dprime[A], 3, 5)
		g4.MustAddEdge(in.prime[B], 5, 4)
		g4.MustAddEdge(in.e, 0, 5)

		for k, g := range []*diagram.Diagram{g1, g2, g3, g4} {
			d, err := g.TD(fmt.Sprintf("D%d[%d: %s]", k+1, i, label))
			if err != nil {
				panic(err)
			}
			deps = append(deps, d)
		}
	}
	a := in.Pres.Alphabet
	a0, z := a.A0(), a.Zero()
	g := diagram.MustNew(in.Schema, 4, 3)
	g.MustAddEdge(in.e, 0, 1)
	g.MustAddEdge(in.prime[a0], 0, 2)
	g.MustAddEdge(in.dprime[a0], 2, 1)
	g.MustAddEdge(in.prime[z], 0, 3)
	g.MustAddEdge(in.dprime[z], 3, 1)
	g.MustAddEdge(in.ePrime, 2, 3)
	d0, err := g.TD("D0")
	if err != nil {
		panic(err)
	}
	return deps, d0
}

// TestDirectRowsMatchDiagrams checks that every dependency Build writes
// straight into rows prints exactly as the diagram path's, with the same
// tableau, on every preset and on the Turing-machine corpus.
func TestDirectRowsMatchDiagrams(t *testing.T) {
	var ps []*words.Presentation
	for _, name := range []string{"power", "twostep", "gap",
		"chain:1", "chain:2", "chain:3", "chain:4", "chain:5", "chain:6",
		"nilpotent:1", "nilpotent:2", "nilpotent:3", "nilpotent:4", "nilpotent:5",
		"tower:1", "tower:2", "tower:3", "tower:4",
		"collapse:2", "collapse:3", "collapse:4"} {
		p, err := words.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	tms, err := corpus.Generate(corpus.Options{Seed: 1, TM: 48})
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range tms {
		ps = append(ps, inst.Pres)
	}
	total := 0
	for _, p := range ps {
		in, err := Build(p)
		if err != nil {
			t.Fatal(err)
		}
		deps, d0 := diagramDeps(in)
		if len(deps) != len(in.D) {
			t.Fatalf("%d dependencies, the diagram path draws %d", len(in.D), len(deps))
		}
		for i, want := range append(deps, d0) {
			got := in.D0
			if i < len(in.D) {
				got = in.D[i]
			}
			if got.String() != want.String() {
				t.Fatalf("dependency %d:\n got %s\nwant %s", i, got, want)
			}
			for a := 0; a < in.Schema.Width(); a++ {
				if got.Tableau().VarCount(relation.Attr(a)) != want.Tableau().VarCount(relation.Attr(a)) {
					t.Fatalf("%s: column %d variable counts differ", got.Name(), a)
				}
			}
			total++
		}
	}
	t.Logf("%d dependencies from %d presentations match", total, len(ps))
}

// TestImportsNoEngine pins the packages reduction is built from: the
// construction draws no diagram and runs no engine.
func TestImportsNoEngine(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "templatedep/internal/reduction").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var got []string
	for _, pkg := range strings.Fields(string(out)) {
		if rest, ok := strings.CutPrefix(pkg, "templatedep/internal/"); ok && rest != "reduction" {
			got = append(got, rest)
		}
	}
	sort.Strings(got)
	want := []string{"budget", "relation", "semigroup", "tableau", "td", "words"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("reduction depends on %v, want %v", got, want)
	}
}
