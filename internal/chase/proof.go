package chase

import (
	"fmt"

	"templatedep/internal/relation"
	"templatedep/internal/tableau"
	"templatedep/internal/td"
)

// ValidateTrace replays a chase trace against an independent copy of the
// start instance and checks that every recorded step is justified: the
// fired dependency's antecedents must match the instance built so far by a
// homomorphism whose universal conclusion positions agree with the added
// tuple, and the tuple must be new. A valid trace whose final instance witnesses goal is an
// independently checkable PROOF of implication — the chase-side analogue of
// words.Derivation.Validate.
//
// Validation is deliberately decoupled from the engine: it never trusts
// Result internals, only the recorded tuples.
func ValidateTrace(deps []*td.TD, start *relation.Instance, trace []Fired, goal func(*relation.Instance) bool) error {
	inst := start.Clone()
	for i, f := range trace {
		if f.Dep < 0 || f.Dep >= len(deps) {
			return fmt.Errorf("chase: step %d: dependency index %d out of range", i, f.Dep)
		}
		d := deps[f.Dep]
		if len(f.Tuple) != d.Schema().Width() {
			return fmt.Errorf("chase: step %d: tuple width %d", i, len(f.Tuple))
		}
		if err := justify(d, inst, f.Tuple); err != nil {
			return fmt.Errorf("chase: step %d (%s): %w", i, d.Name(), err)
		}
		_, added, err := inst.Add(f.Tuple)
		if err != nil {
			return fmt.Errorf("chase: step %d: %w", i, err)
		}
		if !added {
			return fmt.Errorf("chase: step %d: tuple %v is already present", i, f.Tuple)
		}
	}
	if goal != nil && !goal(inst) {
		return fmt.Errorf("chase: replayed instance does not witness the goal")
	}
	return nil
}

// justify checks that tup is a legal conclusion of d against inst: some
// homomorphism of d's antecedents binds every universal conclusion position
// to tup's value there, and every existential position holds a value new
// to its column — a labelled null, as the engine invents. Which new value
// does not matter; an existing one would assert an equality the
// dependency does not imply.
func justify(d *td.TD, inst *relation.Instance, tup relation.Tuple) error {
	// Seed every conclusion variable with the tuple's value: existential
	// ones occur in no antecedent row, so only the universal ones constrain
	// the match.
	seed := tableau.NewAssignment(d.Tableau())
	for a, v := range d.Conclusion() {
		seed[a][v] = tup[a]
	}
	for _, a := range d.ExistentialColumns() {
		if len(inst.Matching(a, tup[a])) > 0 {
			return fmt.Errorf("existential position %s holds %d, which is not a new value", d.Schema().Name(a), tup[a])
		}
	}
	found := false
	d.Tableau().EachPrefixHomomorphism(inst, seed, d.NumAntecedents(), func(tableau.Assignment) bool {
		found = true
		return false
	})
	if !found {
		return fmt.Errorf("no antecedent match justifies tuple %v", tup)
	}
	return nil
}
