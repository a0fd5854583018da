package cert_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"templatedep/internal/budget"
	"templatedep/internal/cert"
	"templatedep/internal/core"
	"templatedep/internal/reduction"
	"templatedep/internal/td"
	"templatedep/internal/words"
)

// impliedPresentationCert runs the presentation pipeline on a derivable
// instance and returns its certificate after an encode/decode round trip.
func impliedPresentationCert(t *testing.T) *cert.Certificate {
	t.Helper()
	res, err := core.AnalyzePresentation(words.TwoStepPresentation(), core.DefaultBudget())
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != core.Implied {
		t.Fatalf("verdict %v, want implied", res.Verdict)
	}
	return roundTrip(t, res.Cert())
}

// fcexPresentationCert runs the pipeline on the power presentation (finite
// counterexample N3) and round-trips its certificate.
func fcexPresentationCert(t *testing.T) *cert.Certificate {
	t.Helper()
	res, err := core.AnalyzePresentation(words.PowerPresentation(), core.DefaultBudget())
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != core.FiniteCounterexample {
		t.Fatalf("verdict %v, want finite-counterexample", res.Verdict)
	}
	return roundTrip(t, res.Cert())
}

func roundTrip(t *testing.T, c *cert.Certificate) *cert.Certificate {
	t.Helper()
	if c == nil {
		t.Fatal("nil certificate for definitive verdict")
	}
	data, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := cert.Decode(data)
	if err != nil {
		t.Fatalf("decode of freshly encoded certificate: %v", err)
	}
	return dec
}

func TestDerivationCertRoundTrip(t *testing.T) {
	c := impliedPresentationCert(t)
	if c.Kind != cert.KindDerivation {
		t.Fatalf("kind %s, want derivation", c.Kind)
	}
	if err := cert.Check(c); err != nil {
		t.Fatalf("valid derivation certificate rejected: %v", err)
	}
}

func TestFiniteModelCertRoundTrip(t *testing.T) {
	c := fcexPresentationCert(t)
	if c.Kind != cert.KindFiniteModel {
		t.Fatalf("kind %s, want finite-model", c.Kind)
	}
	if len(c.Model.Table) == 0 || len(c.Model.Assign) == 0 {
		t.Fatal("presentation counterexample certificate lacks the semigroup witness")
	}
	if err := cert.Check(c); err != nil {
		t.Fatalf("valid finite-model certificate rejected: %v", err)
	}
}

func TestChaseCertRoundTripTD(t *testing.T) {
	_, fig1 := td.GarmentExample()
	b := core.DefaultBudget()
	b.Certify = true
	res, err := core.Infer([]*td.TD{fig1}, fig1, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != core.Implied {
		t.Fatalf("verdict %v, want implied", res.Verdict)
	}
	c := roundTrip(t, res.Cert())
	if c.Kind != cert.KindChase {
		t.Fatalf("kind %s, want chase", c.Kind)
	}
	if err := cert.Check(c); err != nil {
		t.Fatalf("valid chase certificate rejected: %v", err)
	}
}

func TestFiniteModelCertRoundTripTD(t *testing.T) {
	_, fig1 := td.GarmentExample()
	b := core.DefaultBudget()
	b.Certify = true
	res, err := core.Infer(nil, fig1, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != core.FiniteCounterexample {
		t.Fatalf("verdict %v, want finite-counterexample", res.Verdict)
	}
	c := roundTrip(t, res.Cert())
	if err := cert.Check(c); err != nil {
		t.Fatalf("valid TD finite-model certificate rejected: %v", err)
	}
}

func TestCertifyImpliedReplay(t *testing.T) {
	// An untraced win (as from the kb portfolio arm) certifies by
	// deterministic chase replay.
	p := words.TwoStepPresentation()
	res, err := core.AnalyzePresentation(p, core.DefaultBudget())
	if err != nil {
		t.Fatal(err)
	}
	in := res.Instance
	c := cert.CertifyImplied(context.Background(), cert.PresentationProblem(p), in.D, in.D0, budget.Limits{})
	if c == nil {
		t.Fatal("replay failed to certify a sound implied verdict")
	}
	if err := cert.Check(roundTrip(t, c)); err != nil {
		t.Fatalf("replayed certificate rejected: %v", err)
	}
}

// The replay runs under the caller's context, not a fresh background one:
// a request past its deadline, or on a draining server, gets no
// certificate instead of a replay running on to the chase.DefaultLimits
// floors.
func TestCertifyImpliedHonoursCancellation(t *testing.T) {
	p := words.TwoStepPresentation()
	in := reduction.MustBuild(p)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if c := cert.CertifyImplied(ctx, cert.PresentationProblem(p), in.D, in.D0, budget.Limits{}); c != nil {
		t.Fatal("a cancelled replay returned a certificate")
	}

	// Cancellation mid-replay: the gap instance never reaches its goal and
	// roughly squares every round, so only the chase's in-round
	// checkpoints can stop it before the default floors. A generous CI
	// margin still catches a replay that ignores ctx.
	gap := words.IdempotentGapPresentation()
	gin := reduction.MustBuild(gap)
	ctx, cancel = context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	c := cert.CertifyImplied(ctx, cert.PresentationProblem(gap), gin.D, gin.D0, budget.Limits{})
	elapsed := time.Since(start)
	if c != nil {
		t.Fatal("an expired replay of an unimplied goal returned a certificate")
	}
	if elapsed > 5*time.Second {
		t.Errorf("replay overshot its 30ms context by %v", elapsed)
	}
}

// --- adversarial rejection (satellite: every tamper fails with a precise error) ---

func wantCheckError(t *testing.T, c *cert.Certificate, substr string) {
	t.Helper()
	err := cert.Check(c)
	if err == nil {
		t.Fatalf("tampered certificate accepted (wanted error containing %q)", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("error %q does not mention %q", err, substr)
	}
}

func TestRejectCorruptedChaseStep(t *testing.T) {
	_, fig1 := td.GarmentExample()
	b := core.DefaultBudget()
	b.Certify = true
	res, err := core.Infer([]*td.TD{fig1}, fig1, b)
	if err != nil {
		t.Fatal(err)
	}
	// A step firing a dependency the problem does not have.
	c := roundTrip(t, res.Cert())
	c.Chase.Steps[0].Dep = 99
	wantCheckError(t, c, "dependency index")

	// A step whose tuple does not fit the schema.
	c = roundTrip(t, res.Cert())
	c.Chase.Steps[0].Tuple = c.Chase.Steps[0].Tuple[:1]
	wantCheckError(t, c, "tuple width")

	// A step whose tuple no antecedent homomorphism justifies: fig1's
	// conclusion has universal STYLE and SIZE positions, and 424242 never
	// occurs in the replayed instance.
	c = roundTrip(t, res.Cert())
	c.Chase.Steps[0].Tuple[1] = 424242
	wantCheckError(t, c, "justifies")

	// An emptied trace no longer reaches the goal witness (the goal here
	// is not trivially implied, so the frozen antecedents alone cannot
	// witness it).
	c = roundTrip(t, res.Cert())
	c.Chase.Steps = nil
	wantCheckError(t, c, "witness the goal")
}

func TestRejectForgedDerivation(t *testing.T) {
	c := impliedPresentationCert(t)

	// Tamper a step's recorded result: the chain no longer rewrites.
	forged := roundTrip(t, c)
	forged.Derivation.Steps[0].Result = forged.Derivation.To
	wantCheckError(t, forged, "step 0")

	// Re-target the derivation at a non-goal equation.
	forged = roundTrip(t, c)
	forged.Derivation.From = forged.Derivation.To
	wantCheckError(t, forged, "not the goal")
}

func TestRejectModelFailingDependency(t *testing.T) {
	// A hand-built TD problem keeps the tamper deterministic. On the
	// diagonal {(1,1),(2,2)} the dependency g only matches trivially (its
	// third antecedent R(a0, b1) forces a0's and a1's rows to share both
	// values), so it holds, while the product goal needs the absent (1,2).
	valid := &cert.Certificate{
		Version: cert.Version,
		Kind:    cert.KindFiniteModel,
		Verdict: "finite-counterexample",
		Problem: cert.Problem{
			Schema: []string{"A", "B"},
			Deps:   []string{"g: R(a0, b0) & R(a1, b1) & R(a0, b1) -> R(a1, b0)"},
			Goal:   "R(a0, b0) & R(a1, b1) -> R(a0, b1)",
		},
		Model: &cert.Model{Tuples: [][]int{{1, 1}, {2, 2}}},
	}
	if err := cert.Check(valid); err != nil {
		t.Fatalf("valid hand-built model certificate rejected: %v", err)
	}

	// Adding (1,2) activates g's match (1,1),(2,2),(1,2) -> needs the
	// absent (2,1): the model now violates the dependency.
	broken := roundTrip(t, valid)
	broken.Model.Tuples = [][]int{{1, 1}, {2, 2}, {1, 2}}
	wantCheckError(t, broken, "violates dependency")

	// A model satisfying the goal certifies nothing.
	broken = roundTrip(t, valid)
	broken.Model.Tuples = [][]int{{1, 1}}
	wantCheckError(t, broken, "not a counterexample")
}

func TestRejectTamperedWitness(t *testing.T) {
	c := fcexPresentationCert(t)

	// Reassign A0 to the zero element: the goal then HOLDS in the
	// witness, so it is no longer a Main Lemma failure model.
	broken := roundTrip(t, c)
	broken.Model.Assign[broken.Problem.A0] = broken.Model.Assign[broken.Problem.Zero]
	wantCheckError(t, broken, "witness")
}

func TestRejectTruncatedJSON(t *testing.T) {
	c := impliedPresentationCert(t)
	data, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cert.Decode(data[:len(data)/2]); err == nil {
		t.Fatal("truncated JSON accepted")
	}
	if _, err := cert.Decode(append(data, []byte("{}")...)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	if _, err := cert.Decode([]byte(strings.Replace(string(data), `"kind"`, `"kinds"`, 1))); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestRejectVersionAndShape(t *testing.T) {
	c := impliedPresentationCert(t)

	bad := roundTrip(t, c)
	bad.Version = cert.Version + 1
	wantCheckError(t, bad, "unsupported version")

	bad = roundTrip(t, c)
	bad.Verdict = "finite-counterexample"
	wantCheckError(t, bad, "certifies verdict")

	bad = roundTrip(t, c)
	bad.Derivation = nil
	if err := cert.Check(bad); err == nil {
		t.Fatal("payload-less certificate accepted")
	}
}
