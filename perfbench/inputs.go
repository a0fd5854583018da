package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"templatedep/internal/cert"
	"templatedep/internal/corpus"
	"templatedep/internal/relation"
	"templatedep/internal/serve"
	"templatedep/internal/tableau"
	"templatedep/internal/td"
	"templatedep/internal/words"
)

// item is one request the benchmark sends, with what its answer is checked
// against.
type item struct {
	// name identifies the input: a corpus instance ID, "preset:NAME", or
	// "twin:" plus the name of the input it renames.
	name string
	// body is the JSON request body.
	body []byte
	// key is the canonical digest the server must answer with
	// (serve.Problem.Hash); a renamed twin carries its original's.
	key string
	// full is the full canonical key, which decides ring ownership.
	full string
	// truth is the verdict a definitive answer must equal ("" when the
	// input has no ground truth); exact additionally forbids "unknown".
	truth string
	exact bool
}

// The verdict vocabulary of serve.Response.Verdict.
const (
	implied = "implied"
	finite  = "finite-counterexample"
	unknown = "unknown"
)

// newItem canonicalizes req the way the server will and records the key
// its answer must carry.
func newItem(name string, req serve.Request) (item, error) {
	p, err := serve.ParseRequest(req)
	if err != nil {
		return item{}, fmt.Errorf("input %s: %w", name, err)
	}
	body, err := json.Marshal(req)
	if err != nil {
		return item{}, fmt.Errorf("input %s: %w", name, err)
	}
	return item{name: name, body: body, key: p.Hash, full: p.Key}, nil
}

// twinOf builds a renamed twin of orig from req; its key must match.
func twinOf(orig item, req serve.Request) (item, error) {
	t, err := newItem("twin:"+orig.name, req)
	if err != nil {
		return item{}, err
	}
	// The twin is checked against its original's key, not its own, so a
	// canonicalization that splits the two shows up as a wrong answer.
	t.key, t.full, t.truth, t.exact = orig.key, orig.full, orig.truth, orig.exact
	return t, nil
}

func tdRequest(s *relation.Schema, deps []*td.TD, goal *td.TD) serve.Request {
	p := cert.TDProblem(s, deps, goal)
	return serve.Request{Schema: p.Schema, Deps: p.Deps, Goal: p.Goal}
}

func presRequest(p *words.Presentation) serve.Request {
	d := cert.PresentationProblem(p)
	return serve.Request{Alphabet: d.Alphabet, A0: d.A0, Zero: d.Zero, Equations: d.Equations}
}

// tdDraw returns the distinct-key TD instances of the seeded corpus with
// the given random and oracle family counts, in corpus order. Oracle
// instances carry their ground truth. The corpus instances come back
// alongside, index for index, for building renamed twins.
func tdDraw(seed int64, random, oracle int) ([]item, []corpus.Instance, error) {
	ins, err := corpus.Generate(corpus.Options{Seed: seed, Random: random, Oracle: oracle, Workers: 2})
	if err != nil {
		return nil, nil, err
	}
	var (
		items []item
		kept  []corpus.Instance
	)
	seen := make(map[string]bool)
	for _, in := range ins {
		if in.Kind != corpus.KindTD {
			continue
		}
		it, err := newItem(in.ID, tdRequest(in.Schema, in.Deps, in.Goal))
		if err != nil {
			return nil, nil, err
		}
		if seen[it.full] {
			continue
		}
		seen[it.full] = true
		switch in.Oracle {
		case corpus.OracleImplied:
			it.truth = implied
		case corpus.OracleNotImplied:
			it.truth = finite
		}
		items = append(items, it)
		kept = append(kept, in)
	}
	return items, kept, nil
}

// presetTruth is each preset's documented verdict. nilpotent:1 is left out
// because it poses the same problem as power (same canonical key).
var presetTruth = []struct {
	name, verdict string
}{
	{"power", finite}, {"twostep", implied}, {"gap", unknown},
	{"chain:1", implied}, {"chain:2", implied}, {"chain:3", implied},
	{"chain:4", implied}, {"chain:5", implied}, {"chain:6", implied},
	{"nilpotent:2", finite}, {"nilpotent:3", finite}, {"nilpotent:4", finite}, {"nilpotent:5", finite},
	{"tower:1", finite}, {"tower:2", finite}, {"tower:3", finite}, {"tower:4", finite},
	{"collapse:2", implied},
}

// presets returns the preset inputs in documented order, skipping the
// named ones.
func presets(skip ...string) ([]item, error) {
	var out []item
next:
	for _, pt := range presetTruth {
		for _, s := range skip {
			if pt.name == s {
				continue next
			}
		}
		it, err := newItem("preset:"+pt.name, serve.Request{Preset: pt.name})
		if err != nil {
			return nil, err
		}
		it.truth, it.exact = pt.verdict, true
		out = append(out, it)
	}
	return out, nil
}

// renamePresentation applies the renamings the canonical key is documented
// to be invariant under: fresh names for every symbol other than A0 and
// zero (in permuted positions), a shuffled equation list, and flipped
// equation sides.
func renamePresentation(rng *rand.Rand, p *words.Presentation) (*words.Presentation, error) {
	a := p.Alphabet
	names := a.Names()
	a0, zero := a.Name(a.A0()), a.Name(a.Zero())
	var free []int
	for i, n := range names {
		if n != a0 && n != zero {
			free = append(free, i)
		}
	}
	newNames := append([]string(nil), names...)
	to := make([]words.Symbol, len(names))
	for i := range to {
		to[i] = words.Symbol(i)
	}
	for i, j := range rng.Perm(len(free)) {
		newNames[free[i]] = fmt.Sprintf("t%d", i)
		to[free[j]] = words.Symbol(free[i])
	}
	na, err := words.NewAlphabet(newNames, a0, zero)
	if err != nil {
		return nil, err
	}
	mapWord := func(w words.Word) words.Word {
		out := make(words.Word, len(w))
		for k, s := range w {
			out[k] = to[s]
		}
		return out
	}
	eqs := make([]words.Equation, len(p.Equations))
	for i, e := range p.Equations {
		eqs[i] = words.Eq(mapWord(e.LHS), mapWord(e.RHS))
		if rng.Intn(2) == 0 {
			eqs[i] = eqs[i].Reversed()
		}
	}
	rng.Shuffle(len(eqs), func(i, j int) { eqs[i], eqs[j] = eqs[j], eqs[i] })
	return words.NewPresentation(na, eqs)
}

// renameTD applies the renamings the canonical key is documented to be
// invariant under: renamed attributes, per-column variable renumbering,
// renamed dependencies, and a shuffled dependency list with one member
// repeated. Column and antecedent-row order stay as they are.
func renameTD(rng *rand.Rand, s *relation.Schema, deps []*td.TD, goal *td.TD) (*relation.Schema, []*td.TD, *td.TD, error) {
	w := s.Width()
	names := make([]string, w)
	for a := range names {
		names[a] = fmt.Sprintf("X%d", a)
	}
	ns, err := relation.NewSchema(names)
	if err != nil {
		return nil, nil, nil, err
	}
	renumber := func(d *td.TD, name string) (*td.TD, error) {
		rows := make([]tableau.VarTuple, 0, d.NumAntecedents()+1)
		for r := 0; r < d.NumAntecedents(); r++ {
			rows = append(rows, d.Antecedent(r))
		}
		rows = append(rows, d.Conclusion())
		perm := make([][]int, w)
		for a := range perm {
			n := 0
			for _, row := range rows {
				n = max(n, int(row[a])+1)
			}
			perm[a] = rng.Perm(n)
		}
		out := make([]tableau.VarTuple, len(rows))
		for r, row := range rows {
			out[r] = make(tableau.VarTuple, w)
			for a := range row {
				out[r][a] = tableau.Var(perm[a][row[a]])
			}
		}
		return td.New(ns, out[:len(out)-1], out[len(out)-1], name)
	}
	nd := make([]*td.TD, 0, len(deps)+1)
	for i, d := range deps {
		r, err := renumber(d, fmt.Sprintf("r%d", i))
		if err != nil {
			return nil, nil, nil, err
		}
		nd = append(nd, r)
	}
	nd = append(nd, nd[rng.Intn(len(nd))])
	rng.Shuffle(len(nd), func(i, j int) { nd[i], nd[j] = nd[j], nd[i] })
	ng, err := renumber(goal, "rgoal")
	if err != nil {
		return nil, nil, nil, err
	}
	return ns, nd, ng, nil
}
