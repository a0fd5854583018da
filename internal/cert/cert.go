// Package cert defines the one serializable proof-object format of the
// repository: a versioned, self-describing JSON certificate for a
// definitive inference verdict, together with a fast independent checker.
//
// The paper's dual semidecision structure means every definitive verdict
// already has a latent proof object — a chase derivation or an equational
// derivation for "implied", a finite database (optionally with the finite
// semigroup witness it was built from) for "finite-counterexample". Before
// this package those artifacts were four unrelated in-memory types
// (words.Derivation, chase.Fired traces, semigroup.Interpretation,
// reduction.CounterModel), only two of which were independently checkable
// and none of which survived serialization. A Certificate embeds the
// PROBLEM it certifies alongside the proof payload, so a consumer holding
// only the JSON bytes can re-derive everything the checker needs — nothing
// is trusted from the engine that produced it.
//
// Three kinds:
//
//   - "derivation": an equational proof that A0 = 0 is derivable from the
//     presentation. By Reduction Theorem (A) this certifies that the
//     reduction's D implies D0. Presentation problems only.
//   - "chase": a chase trace over (D, D0) — each step a (dependency,
//     tuple) pair — whose replay from D0's frozen antecedents witnesses
//     D0's conclusion. Certifies "implied" for both problem forms.
//   - "finite-model": a finite database, listed tuple by tuple, that
//     satisfies every dependency and violates the goal — certifying
//     "finite-counterexample". For presentation problems it may carry the
//     finite semigroup witness (multiplication table plus symbol
//     assignment) the database was built from; the checker re-validates
//     the witness as a Main Lemma failure model when present.
//
// A certificate serializes the proof the winning engine already found —
// kb's derivation of A0 = 0 (rewrite.System.DecideGoal), a chase run's
// own sequence (chase.Result.Proof), a search's database — never a second
// proof.
//
// Check (check.go) never trusts engine internals: it re-parses the
// embedded problem, deterministically re-normalizes a presentation
// problem (and rebuilds the Gurevich–Lewis reduction for a chase or
// finite-model payload), and re-validates the payload with
// the independent validators (words.Derivation.Validate,
// chase.ValidateTrace, direct td.Satisfies evaluation).
package cert

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"templatedep/internal/chase"
	"templatedep/internal/relation"
	"templatedep/internal/semigroup"
	"templatedep/internal/td"
	"templatedep/internal/words"
)

// Version is the certificate format version this package writes and the
// only one it checks.
const Version = 1

// Kind discriminates the proof payload.
type Kind string

const (
	// KindDerivation is an equational derivation of A0 = 0.
	KindDerivation Kind = "derivation"
	// KindChase is a replayable chase trace witnessing the goal.
	KindChase Kind = "chase"
	// KindFiniteModel is a finite counterexample database.
	KindFiniteModel Kind = "finite-model"
)

// Problem is the self-describing problem statement a certificate is about.
// Exactly one form is populated: a presentation (alphabet/a0/zero/
// equations, mirroring the serving layer's wire form) or a TD instance
// (schema/deps/goal in td.Parse notation). Presentation problems are
// checked against the deterministic rebuild of the normalized presentation
// (derivations) or of the reduction's (D, D0) (chase and finite models).
type Problem struct {
	Alphabet  []string `json:"alphabet,omitempty"`
	A0        string   `json:"a0,omitempty"`
	Zero      string   `json:"zero,omitempty"`
	Equations []string `json:"equations,omitempty"`

	Schema []string `json:"schema,omitempty"`
	Deps   []string `json:"deps,omitempty"`
	Goal   string   `json:"goal,omitempty"`
}

// IsPresentation reports whether the presentation form is populated.
func (p Problem) IsPresentation() bool { return len(p.Alphabet) > 0 }

// Certificate is one serializable proof object. Exactly one payload field
// (Derivation, Chase, Model) is set, matching Kind.
type Certificate struct {
	Version int     `json:"version"`
	Kind    Kind    `json:"kind"`
	Verdict string  `json:"verdict"`
	Problem Problem `json:"problem"`

	Derivation *Derivation `json:"derivation,omitempty"`
	Chase      *Chase      `json:"chase,omitempty"`
	Model      *Model      `json:"model,omitempty"`
}

// Derivation is the equational-proof payload: a chain of single-occurrence
// replacements from A0 to 0 over the reduction's normalized presentation.
// Words are formatted in the alphabet's notation (words.ParseWord).
type Derivation struct {
	From  string      `json:"from"`
	To    string      `json:"to"`
	Steps []DerivStep `json:"steps"`
}

// DerivStep is one replacement: equation Eq applied at position Pos
// (Forward = LHS→RHS), yielding Result.
type DerivStep struct {
	Eq      int    `json:"eq"`
	Pos     int    `json:"pos"`
	Forward bool   `json:"forward"`
	Result  string `json:"result"`
}

// Chase is the chase-trace payload. Steps replay in order from the goal's
// frozen antecedents, each adding a new tuple.
type Chase struct {
	Steps []ChaseStep `json:"steps"`
}

// ChaseStep fires dependency Dep (index into the problem's dependency
// set), adding Tuple.
type ChaseStep struct {
	Dep   int   `json:"dep"`
	Tuple []int `json:"tuple"`
}

// Model is the finite-counterexample payload: the database, one tuple per
// row, plus (presentation problems only, optional) the finite semigroup
// witness it was built from.
type Model struct {
	Tuples [][]int `json:"tuples"`
	// Table is the witness semigroup's multiplication table and Assign
	// maps original-alphabet symbol names to its elements. When present
	// the checker re-validates the interpretation as a Main Lemma failure
	// model for the (rebuilt) normalized presentation.
	Table  [][]int        `json:"table,omitempty"`
	Assign map[string]int `json:"assign,omitempty"`
}

// PresentationProblem renders p as a certificate problem statement.
func PresentationProblem(p *words.Presentation) Problem {
	a := p.Alphabet
	doc := Problem{
		Alphabet: a.Names(),
		A0:       a.Name(a.A0()),
		Zero:     a.Name(a.Zero()),
	}
	for _, e := range p.Equations {
		doc.Equations = append(doc.Equations, e.Format(a))
	}
	return doc
}

// TDProblem renders a TD instance as a certificate problem statement.
func TDProblem(schema *relation.Schema, deps []*td.TD, goal *td.TD) Problem {
	doc := Problem{Schema: schema.Names(), Goal: goal.Format()}
	for _, d := range deps {
		doc.Deps = append(doc.Deps, d.Format())
	}
	return doc
}

// NewDerivation builds a derivation certificate. The derivation must be
// over pres — the presentation the checker will rebuild from doc
// (reduction.Normalize of the problem's presentation).
func NewDerivation(doc Problem, pres *words.Presentation, d *words.Derivation) *Certificate {
	if d == nil {
		return nil
	}
	a := pres.Alphabet
	cd := &Derivation{From: d.From.Format(a), To: d.To.Format(a)}
	for _, s := range d.Steps {
		cd.Steps = append(cd.Steps, DerivStep{Eq: s.Eq, Pos: s.Pos, Forward: s.Forward, Result: s.Result.Format(a)})
	}
	return &Certificate{Version: Version, Kind: KindDerivation, Verdict: "implied", Problem: doc, Derivation: cd}
}

// NewChase builds a chase certificate from the proof of an Implied chase
// run (chase.Result.Proof).
func NewChase(doc Problem, proof []chase.Fired) *Certificate {
	// A zero-step proof is a valid proof of a TRIVIAL implication: the
	// goal's conclusion is already satisfiable in its own frozen
	// antecedents, and the checker verifies exactly that (the witness
	// check of an empty replay). Random fuzzing generates such goals
	// routinely, so they must be certifiable too.
	cc := &Chase{}
	for _, f := range proof {
		t := make([]int, len(f.Tuple))
		for i, v := range f.Tuple {
			t[i] = int(v)
		}
		cc.Steps = append(cc.Steps, ChaseStep{Dep: f.Dep, Tuple: t})
	}
	return &Certificate{Version: Version, Kind: KindChase, Verdict: "implied", Problem: doc, Chase: cc}
}

// NewFiniteModel builds a finite-model certificate from the
// counterexample database and, optionally, the semigroup witness over the
// problem's ORIGINAL alphabet.
func NewFiniteModel(doc Problem, inst *relation.Instance, wit *semigroup.Interpretation) *Certificate {
	if inst == nil {
		return nil
	}
	m := &Model{Tuples: make([][]int, 0, inst.Len())}
	for _, tup := range inst.Tuples() {
		row := make([]int, len(tup))
		for i, v := range tup {
			row[i] = int(v)
		}
		m.Tuples = append(m.Tuples, row)
	}
	if wit != nil && wit.Alphabet != nil {
		m.Table = wit.Table.Rows()
		m.Assign = make(map[string]int, len(wit.Assign))
		for s, e := range wit.Assign {
			// The witness is over the problem's original alphabet; the
			// checker resolves the names against the rebuilt problem.
			m.Assign[wit.Alphabet.Name(s)] = int(e)
		}
	}
	return &Certificate{Version: Version, Kind: KindFiniteModel, Verdict: "finite-counterexample", Problem: doc, Model: m}
}

// Encode renders the certificate as indented JSON, newline-terminated —
// the on-disk format of `tdinfer -cert` and the wire format of
// `POST /infer?cert=1`.
func (c *Certificate) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Decode parses certificate bytes strictly: unknown fields, trailing
// garbage, and truncated documents are all errors, so a tampered byte that
// breaks JSON structure is caught before any semantic check runs.
func Decode(data []byte) (*Certificate, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var c Certificate
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("cert: decode: %w", err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return nil, fmt.Errorf("cert: decode: trailing data after certificate")
	}
	return &c, nil
}
