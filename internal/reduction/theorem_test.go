package reduction

import (
	"fmt"

	"templatedep/internal/chase"
	"templatedep/internal/semigroup"
	"templatedep/internal/words"
)

// The Reduction Theorem's two directions as end-to-end test drivers: part
// (A) through a derivation and the chase, part (B) through a counter-model
// built from a semigroup witness and verified.

// DirectionAReport certifies an execution of Reduction Theorem part (A):
// the presentation equationally forces A0 = 0 (witnessed by Derivation) and
// the chase proves D ⊨ D0 (witnessed by Chase, whose trace is the proof).
type DirectionAReport struct {
	Instance   *Instance
	Derivation *words.Derivation
	Chase      chase.Result
}

// VerifyDirectionA builds the reduction instance for p, certifies that the
// goal A0 = 0 is derivable, and runs the chase to confirm that D logically
// implies D0. An error is returned if the derivation cannot be found or the
// chase does not reach the Implied verdict within its budgets (a budget
// failure is an inconclusive run, not a refutation of the theorem).
func VerifyDirectionA(p *words.Presentation, copt words.ClosureOptions, chopt chase.Options) (*DirectionAReport, error) {
	in, err := Build(p)
	if err != nil {
		return nil, err
	}
	// Certify derivability over the (2,1) presentation the dependencies
	// encode, so the derivation and the chase tell the same story.
	res := words.DeriveGoal(in.Pres, copt)
	switch res.Verdict {
	case words.Derivable:
	case words.NotDerivable:
		return nil, fmt.Errorf("reduction: goal is not derivable; part (A) does not apply")
	default:
		return nil, fmt.Errorf("reduction: derivability unknown within budget; raise words.ClosureOptions")
	}
	if err := res.Derivation.Validate(in.Pres); err != nil {
		return nil, fmt.Errorf("reduction: internal error: invalid derivation: %w", err)
	}
	cres, err := chase.Implies(in.D, in.D0, chopt)
	if err != nil {
		return nil, err
	}
	if cres.Verdict != chase.Implied {
		return nil, fmt.Errorf("reduction: chase verdict %v after %d rounds / %d tuples; part (A) predicts Implied — raise chase budgets",
			cres.Verdict, cres.Stats.Rounds, cres.Instance.Len())
	}
	return &DirectionAReport{Instance: in, Derivation: res.Derivation, Chase: cres}, nil
}

// DirectionBReport certifies an execution of Reduction Theorem part (B):
// a finite cancellation semigroup witness yields a finite database
// satisfying D and violating D0.
type DirectionBReport struct {
	Instance     *Instance
	CounterModel *CounterModel
}

// VerifyDirectionB builds the reduction instance for p, constructs the
// part (B) counter-model from the witness, and verifies it mechanically.
func VerifyDirectionB(p *words.Presentation, wit *semigroup.Interpretation) (*DirectionBReport, error) {
	in, err := Build(p)
	if err != nil {
		return nil, err
	}
	cm, err := in.BuildCounterModel(wit)
	if err != nil {
		return nil, err
	}
	if err := in.Verify(cm); err != nil {
		return nil, err
	}
	return &DirectionBReport{Instance: in, CounterModel: cm}, nil
}
