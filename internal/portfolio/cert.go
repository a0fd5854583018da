package portfolio

import (
	"templatedep/internal/cert"
	"templatedep/internal/core"
)

// Cert returns the run's certificate, serialized on demand from the proof
// the winning arm kept — the closure's or kb's derivation of A0 = 0, the
// winning chase lease's own sequence, or the counterexample database (with
// the semigroup witness when the model search found it); nothing is proved
// again.
// Presentation runs embed the ORIGINAL presentation. Nil for Unknown.
func (r *Result) Cert() *cert.Certificate {
	var doc cert.Problem
	switch {
	case r.Verdict == core.Unknown:
		return nil
	case r.original != nil:
		doc = cert.PresentationProblem(r.original)
	default:
		doc = cert.TDProblem(r.d0.Schema(), r.deps, r.d0)
	}
	switch {
	case r.Winner == "derivation" || r.Winner == "kb":
		return cert.NewDerivation(doc, r.norm, r.derivation)
	case r.Winner == "chase" && r.Verdict == core.Implied:
		return cert.NewChase(doc, r.Chase.Proof())
	case r.CounterModel != nil:
		return cert.NewFiniteModel(doc, r.CounterModel.Instance, r.Witness)
	case r.Counterexample != nil:
		return cert.NewFiniteModel(doc, r.Counterexample, nil)
	}
	return nil
}
