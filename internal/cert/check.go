package cert

import (
	"fmt"
	"strings"

	"templatedep/internal/chase"
	"templatedep/internal/reduction"
	"templatedep/internal/relation"
	"templatedep/internal/semigroup"
	"templatedep/internal/tableau"
	"templatedep/internal/td"
	"templatedep/internal/words"
)

// Check verifies a certificate against its own embedded problem, trusting
// nothing from the engine that produced it. The problem is re-parsed from
// its wire form; for presentation problems the presentation is normalized
// (reduction.Normalize) and, for chase and finite-model certificates, the
// Gurevich–Lewis reduction is rebuilt (reduction.Build is deterministic, so
// the rebuilt (D, D0) is the instance the certificate is about); and the
// payload is re-validated by the independent checkers — the derivation
// validator, the chase trace replayer, or direct dependency/goal
// evaluation over the listed tuples.
// A nil error means the certificate PROVES its verdict for its problem.
func Check(c *Certificate) error {
	if err := c.checkHeader(); err != nil {
		return err
	}
	if c.Problem.IsPresentation() {
		p, err := c.Problem.presentation()
		if err != nil {
			return err
		}
		return c.checkPresentation(p)
	}
	deps, goal, err := c.Problem.tdInstance()
	if err != nil {
		return err
	}
	return c.checkTD(deps, goal)
}

// CheckPresentation is Check for a caller that already holds p, the parse
// of the presentation problem c embeds: it validates c's payload against p
// without re-parsing c.Problem. The caller vouches that p is that parse
// (the serving layer, for one, passes its request's parse only when the
// certificate embeds the request's own problem); a certificate about any
// other problem proves nothing about p.
func CheckPresentation(c *Certificate, p *words.Presentation) error {
	if err := c.checkHeader(); err != nil {
		return err
	}
	if !c.Problem.IsPresentation() {
		return fmt.Errorf("cert: problem is not a presentation")
	}
	return c.checkPresentation(p)
}

// CheckTD is CheckPresentation for a TD problem: it validates c's payload
// against deps and goal, the caller's parse of the TD instance c embeds,
// without re-parsing c.Problem.
func CheckTD(c *Certificate, deps []*td.TD, goal *td.TD) error {
	if err := c.checkHeader(); err != nil {
		return err
	}
	if c.Problem.IsPresentation() {
		return fmt.Errorf("cert: problem is not a TD instance")
	}
	return c.checkTD(deps, goal)
}

// checkHeader checks everything Check checks before it parses the
// problem: the version and the shape.
func (c *Certificate) checkHeader() error {
	if c == nil {
		return fmt.Errorf("cert: nil certificate")
	}
	if c.Version != Version {
		return fmt.Errorf("cert: unsupported version %d (checker understands %d)", c.Version, Version)
	}
	return c.checkShape()
}

// checkShape validates kind/verdict/payload coherence before any engine
// object is built.
func (c *Certificate) checkShape() error {
	payloads := 0
	if c.Derivation != nil {
		payloads++
	}
	if c.Chase != nil {
		payloads++
	}
	if c.Model != nil {
		payloads++
	}
	if payloads != 1 {
		return fmt.Errorf("cert: want exactly one payload, got %d", payloads)
	}
	var wantVerdict string
	switch c.Kind {
	case KindDerivation:
		if c.Derivation == nil {
			return fmt.Errorf("cert: kind %q without derivation payload", c.Kind)
		}
		wantVerdict = "implied"
	case KindChase:
		if c.Chase == nil {
			return fmt.Errorf("cert: kind %q without chase payload", c.Kind)
		}
		wantVerdict = "implied"
	case KindFiniteModel:
		if c.Model == nil {
			return fmt.Errorf("cert: kind %q without model payload", c.Kind)
		}
		wantVerdict = "finite-counterexample"
	default:
		return fmt.Errorf("cert: unknown kind %q", c.Kind)
	}
	if c.Verdict != wantVerdict {
		return fmt.Errorf("cert: kind %q certifies verdict %q, not %q", c.Kind, wantVerdict, c.Verdict)
	}
	pres := c.Problem.IsPresentation()
	tdForm := c.Problem.Goal != "" || len(c.Problem.Schema) > 0 || len(c.Problem.Deps) > 0
	if pres == tdForm {
		return fmt.Errorf("cert: problem must carry exactly one form (presentation or schema/deps/goal)")
	}
	return nil
}

// presentation re-parses the embedded presentation problem.
func (p Problem) presentation() (*words.Presentation, error) {
	a, err := words.NewAlphabet(p.Alphabet, p.A0, p.Zero)
	if err != nil {
		return nil, fmt.Errorf("cert: problem alphabet: %w", err)
	}
	eqs := make([]words.Equation, 0, len(p.Equations))
	for i, line := range p.Equations {
		e, err := words.ParseEquation(a, line)
		if err != nil {
			return nil, fmt.Errorf("cert: problem equation %d: %w", i, err)
		}
		eqs = append(eqs, e)
	}
	return words.NewPresentation(a, eqs)
}

// tdInstance re-parses the embedded TD problem.
func (p Problem) tdInstance() ([]*td.TD, *td.TD, error) {
	schema, err := relation.NewSchema(p.Schema)
	if err != nil {
		return nil, nil, fmt.Errorf("cert: problem schema: %w", err)
	}
	deps, err := td.ParseSet(schema, strings.Join(p.Deps, "\n"))
	if err != nil {
		return nil, nil, fmt.Errorf("cert: problem dependencies: %w", err)
	}
	goal, err := td.Parse(schema, p.Goal, "D0")
	if err != nil {
		return nil, nil, fmt.Errorf("cert: problem goal: %w", err)
	}
	return deps, goal, nil
}

// checkPresentation checks c's payload against p, the parse of its
// presentation problem: a derivation against the normalized presentation
// alone (reduction.Normalize); only chase and finite-model certificates,
// which are about (D, D0) itself, rebuild the reduction.
func (c *Certificate) checkPresentation(p *words.Presentation) error {
	if c.Kind == KindDerivation {
		norm, err := reduction.Normalize(p)
		if err != nil {
			return fmt.Errorf("cert: normalizing presentation: %w", err)
		}
		return checkDerivation(norm, c.Derivation)
	}
	in, err := reduction.Build(p)
	if err != nil {
		return fmt.Errorf("cert: rebuilding reduction: %w", err)
	}
	switch c.Kind {
	case KindChase:
		return checkChase(in.D, in.D0, c.Chase)
	default:
		if err := checkModel(in.Schema, in.D, in.D0, c.Model); err != nil {
			return err
		}
		if len(c.Model.Table) > 0 || len(c.Model.Assign) > 0 {
			return checkWitness(p, in, c.Model)
		}
		return nil
	}
}

// checkTD checks c's payload against deps and goal, the parse of its TD
// problem.
func (c *Certificate) checkTD(deps []*td.TD, goal *td.TD) error {
	switch c.Kind {
	case KindDerivation:
		return fmt.Errorf("cert: derivation certificates require a presentation problem")
	case KindChase:
		return checkChase(deps, goal, c.Chase)
	default:
		if len(c.Model.Table) > 0 || len(c.Model.Assign) > 0 {
			return fmt.Errorf("cert: semigroup witness requires a presentation problem")
		}
		return checkModel(goal.Schema(), deps, goal, c.Model)
	}
}

// checkDerivation re-validates an equational proof of the goal A0 = 0 over
// the normalized presentation.
func checkDerivation(p *words.Presentation, d *Derivation) error {
	a := p.Alphabet
	from, err := words.ParseWord(a, d.From)
	if err != nil {
		return fmt.Errorf("cert: derivation source: %w", err)
	}
	to, err := words.ParseWord(a, d.To)
	if err != nil {
		return fmt.Errorf("cert: derivation target: %w", err)
	}
	goal := p.Goal()
	if !from.Equal(goal.LHS) || !to.Equal(goal.RHS) {
		return fmt.Errorf("cert: derivation proves %s = %s, not the goal %s", d.From, d.To, goal.Format(a))
	}
	wd := &words.Derivation{From: from, To: to}
	for i, s := range d.Steps {
		res, err := words.ParseWord(a, s.Result)
		if err != nil {
			return fmt.Errorf("cert: derivation step %d result: %w", i, err)
		}
		wd.Steps = append(wd.Steps, words.Step{Eq: s.Eq, Pos: s.Pos, Forward: s.Forward, Result: res})
	}
	return wd.Validate(p)
}

// checkChase replays the recorded steps from the goal's frozen antecedents
// with chase.ValidateTrace — every step must be justified by an antecedent
// homomorphism and add a new tuple, and the final instance must witness the
// goal's conclusion.
func checkChase(deps []*td.TD, goal *td.TD, cc *Chase) error {
	// Zero steps are allowed: the replay then just checks the witness on
	// the frozen antecedents, which is the sound proof of a trivial
	// implication (any homomorphism of the antecedents carries the frozen
	// conclusion witness along). A forged empty trace for a non-trivial
	// goal still fails that witness check.
	trace := make([]chase.Fired, 0, len(cc.Steps))
	for _, s := range cc.Steps {
		tup := make(relation.Tuple, len(s.Tuple))
		for i, v := range s.Tuple {
			tup[i] = relation.Value(v)
		}
		trace = append(trace, chase.Fired{Dep: s.Dep, Tuple: tup})
	}
	frozen, as := goal.FrozenAntecedents()
	concl := goal.Conclusion()
	witness := func(inst *relation.Instance) bool {
		return tableau.RowSatisfiable(concl, as, inst)
	}
	return chase.ValidateTrace(deps, frozen, trace, witness)
}

// checkModel re-evaluates every dependency and the goal against the listed
// database: all dependencies must hold and the goal must fail.
func checkModel(schema *relation.Schema, deps []*td.TD, goal *td.TD, m *Model) error {
	if len(m.Tuples) == 0 {
		return fmt.Errorf("cert: empty model cannot violate the goal")
	}
	inst := relation.NewInstance(schema)
	for i, row := range m.Tuples {
		if len(row) != schema.Width() {
			return fmt.Errorf("cert: model tuple %d has width %d, want %d", i, len(row), schema.Width())
		}
		tup := make(relation.Tuple, len(row))
		for j, v := range row {
			tup[j] = relation.Value(v)
		}
		if _, _, err := inst.Add(tup); err != nil {
			return fmt.Errorf("cert: model tuple %d: %w", i, err)
		}
	}
	for i, d := range deps {
		if ok, _ := d.Satisfies(inst); !ok {
			return fmt.Errorf("cert: model violates dependency %d (%s)", i, d.Name())
		}
	}
	if ok, _ := goal.Satisfies(inst); ok {
		return fmt.Errorf("cert: model satisfies the goal %s; it is not a counterexample", goal.Name())
	}
	return nil
}

// checkWitness re-validates the optional semigroup witness: the table must
// be an associative multiplication table, the assignment must interpret the
// ORIGINAL alphabet, and the (deterministically extended) interpretation
// must be a Main Lemma failure model of the normalized presentation — the
// exact hypothesis of Reduction Theorem part (B).
func checkWitness(p *words.Presentation, in *reduction.Instance, m *Model) error {
	mul := make([][]semigroup.Elem, len(m.Table))
	for i, row := range m.Table {
		mul[i] = make([]semigroup.Elem, len(row))
		for j, v := range row {
			mul[i][j] = semigroup.Elem(v)
		}
	}
	t, err := semigroup.New(mul, "witness")
	if err != nil {
		return fmt.Errorf("cert: witness table: %w", err)
	}
	assign := make(map[words.Symbol]semigroup.Elem, len(m.Assign))
	for name, e := range m.Assign {
		s, ok := p.Alphabet.Symbol(name)
		if !ok {
			return fmt.Errorf("cert: witness assigns unknown symbol %q", name)
		}
		assign[s] = semigroup.Elem(e)
	}
	wit, err := semigroup.NewInterpretation(t, p.Alphabet, assign)
	if err != nil {
		return fmt.Errorf("cert: witness: %w", err)
	}
	if _, err := in.ExtendWitness(wit); err != nil {
		return fmt.Errorf("cert: witness: %w", err)
	}
	return nil
}
