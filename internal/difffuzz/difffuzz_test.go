package difffuzz

import (
	"strings"
	"testing"

	"templatedep/internal/corpus"
	"templatedep/internal/obs"
	"templatedep/internal/words"
)

// TestRunSmallCorpusClean runs a small mixed corpus through every engine
// and requires zero invariant violations — the same gate ci.sh enforces,
// in miniature.
func TestRunSmallCorpusClean(t *testing.T) {
	insts, err := corpus.Generate(corpus.Options{Seed: 5, TM: 4, Random: 8, Oracle: 8})
	if err != nil {
		t.Fatal(err)
	}
	counters := obs.NewCounters()
	res, err := Run(insts, Options{Seed: 11, Workers: 4, Sink: obs.NewCounterSink(counters)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cases) != len(insts) {
		t.Fatalf("got %d cases for %d instances", len(res.Cases), len(insts))
	}
	for _, d := range res.Disagreements {
		t.Errorf("disagreement: %s", d)
	}
	for _, c := range res.Cases {
		if len(c.Engines) == 0 {
			t.Errorf("%s: no engines ran", c.ID)
		}
		if c.Oracle != "" && c.Verdict != "unknown" && c.Verdict != engineVerdict(c.Oracle) {
			t.Errorf("%s: consensus %q vs oracle %q survived without a problem entry", c.ID, c.Verdict, c.Oracle)
		}
	}
	snap := counters.Snapshot()
	if snap["fuzz.cases"] != int64(len(insts)) {
		t.Errorf("fuzz.cases = %d, want %d", snap["fuzz.cases"], len(insts))
	}
	if snap["fuzz.disagreements"] != 0 {
		t.Errorf("fuzz.disagreements = %d, want 0", snap["fuzz.disagreements"])
	}
	for _, fam := range []string{"tm", "random", "oracle"} {
		if snap["fuzz.family."+fam+".cases"] == 0 {
			t.Errorf("fuzz.family.%s.cases = 0, want > 0", fam)
		}
	}
}

// TestRunWorkerIndependent pins that verdicts and disagreements do not
// depend on Workers (results land by case index; mutation streams are
// seeded per case).
func TestRunWorkerIndependent(t *testing.T) {
	insts, err := corpus.Generate(corpus.Options{Seed: 3, TM: 2, Random: 4, Oracle: 6})
	if err != nil {
		t.Fatal(err)
	}
	render := func(r *Result) string {
		var b strings.Builder
		for _, c := range r.Cases {
			b.WriteString(c.ID)
			b.WriteString(" ")
			b.WriteString(c.Verdict)
			for _, e := range c.Engines {
				b.WriteString(" ")
				b.WriteString(e.Engine)
				b.WriteString("=")
				b.WriteString(e.Verdict)
			}
			b.WriteString("\n")
		}
		for _, d := range r.Disagreements {
			b.WriteString(d)
			b.WriteString("\n")
		}
		return b.String()
	}
	var want string
	for _, workers := range []int{1, 3} {
		res, err := Run(insts, Options{Seed: 9, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got := render(res)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("fuzz outcome differs between Workers=1 and Workers=%d:\n%s\n---\n%s", workers, want, got)
		}
	}
}

// TestOracleFamilyDecided: with the default governors, every oracle
// instance must reach a definitive consensus (the fragment is decidable
// and the encodings are small), and it must match the ground truth.
func TestOracleFamilyDecided(t *testing.T) {
	insts, err := corpus.Generate(corpus.Options{Seed: 21, Oracle: 16})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(insts, Options{Seed: 4, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Disagreements {
		t.Errorf("disagreement: %s", d)
	}
	for _, c := range res.Cases {
		if c.Verdict == "unknown" {
			t.Errorf("%s (%s): oracle instance stayed unknown", c.ID, c.Label)
			continue
		}
		if c.Verdict != engineVerdict(c.Oracle) {
			t.Errorf("%s (%s): consensus %q, oracle %q", c.ID, c.Label, c.Verdict, c.Oracle)
		}
	}
}

// engineVerdict maps an oracle verdict to the engines' shared vocabulary
// (the fragment is finitely controllable, so "not implied" always means a
// finite counterexample exists).
func engineVerdict(oracle string) string {
	if oracle == "not-implied" {
		return "finite-counterexample"
	}
	return oracle
}

// A presentation instance that kb settles gives a certified portfolio run:
// the kb arm's derivation of A0 = 0 is the certificate, so the portfolio
// certifies presentation instances as it does TD ones.
func TestPortfolioCertifiesKBWins(t *testing.T) {
	for _, name := range []string{"twostep", "chain:2"} {
		p, err := words.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		in := corpus.Instance{ID: "preset/" + name, Family: corpus.FamilyRandom,
			Kind: corpus.KindPresentation, Label: name, Pres: p}
		res, err := Run([]corpus.Instance{in}, Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range res.Disagreements {
			t.Errorf("disagreement: %s", d)
		}
		found := false
		for _, e := range res.Cases[0].Engines {
			if e.Engine != "portfolio" {
				continue
			}
			found = true
			if e.Verdict != "implied" || !e.Certified {
				t.Errorf("%s: portfolio verdict %q, certified %v; want a certified implied", name, e.Verdict, e.Certified)
			}
		}
		if !found {
			t.Errorf("%s: the portfolio did not run", name)
		}
	}
}
